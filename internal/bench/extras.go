package bench

// The extra experiments validate claims the paper makes in prose rather
// than in a numbered figure.

// ExtraScanSettle tests §5.2's workload-E claim: "when intensive PMTable
// compactions finish, MioDB also maintains a large sorted skip list in the
// data repository. The performance of MioDB would approach that of
// NoveLSM-NoSST for scan operations."
func ExtraScanSettle(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("extra-escan", "Workload E immediately after load vs after compactions settle", p.Out)
	const valueSize = 4 << 10
	records := uint64(p.entries(valueSize))
	// scanE loads a store, runs workload E, lets the elastic buffer
	// settle and runs E again; it closes the store on every path.
	scanE := func(kind StoreKind) (immediate, settled RunResult, err error) {
		s, err := open(kind)
		if err != nil {
			return
		}
		defer func() {
			if cerr := s.Close(); err == nil {
				err = cerr
			}
		}()
		if _, err = YCSBLoad(s, records, valueSize); err != nil {
			return
		}
		if immediate, err = YCSBRun(s, "E", p.ycsbOps()/2, records, valueSize, p.Seed, nil); err != nil {
			return
		}
		if err = s.Flush(); err != nil {
			return
		}
		settled, err = YCSBRun(s, "E", p.ycsbOps()/2, records, valueSize, p.Seed+1, nil)
		return
	}
	rows := [][]string{}
	for _, kind := range []StoreKind{MioDB, NoveLSMNoSST} {
		immediate, settled, err := scanE(kind)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{string(kind), f1(immediate.KIOPS), f1(settled.KIOPS)})
	}
	r.Table([]string{"store", "E-immediate", "E-settled"}, rows)
	r.Printf("shape: MioDB's scan throughput right after load lags NoveLSM-NoSST (ongoing compactions, many small PMTables); once settled into the repository it approaches the single-big-skip-list result, as §5.2 predicts.")
	return r, nil
}

// ExtraNoveLSMVariants compares the paper's Figure 1 architectures:
// hierarchical NoveLSM (1(b)), flat NoveLSM (1(c)), and NoveLSM-NoSST.
// The paper states it evaluates flat "because its performance is better
// than the hierarchical NoveLSM".
func ExtraNoveLSMVariants(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("extra-novelsm", "NoveLSM architecture comparison (flat vs hierarchical vs NoSST)", p.Out)
	rows := [][]string{}
	for _, kind := range []StoreKind{NoveLSM, NoveLSMHier, NoveLSMNoSST} {
		m, err := p.newPass(4 << 10).run(open(kind))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			string(kind),
			f1(m.fill.KIOPS), f1(m.read.KIOPS),
			msec(m.st.IntervalStall + m.st.CumulativeStall),
			f2(m.st.WriteAmplification),
		})
	}
	r.Table([]string{"variant", "fillrandom", "readrandom", "stalls-ms", "WA"}, rows)
	r.Printf("shape: flat beats hierarchical on writes (the paper's reason for evaluating flat); NoSST avoids serialization entirely at the cost of unbounded NVM growth.")
	return r, nil
}
