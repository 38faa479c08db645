package bench

import (
	"fmt"
	"io"
	"time"

	"miodb/internal/histogram"
	"miodb/internal/stats"
)

// Params scales and directs an experiment run. The paper's sizes are
// already divided by 1000 in this reproduction (80 GB → 80 MB, 64 MB
// memtables → 64 KB); Scale shrinks them further for quick runs
// (Scale=1.0 is the full scaled reproduction, 0.25 a smoke-test pass).
type Params struct {
	Scale float64
	Out   io.Writer
	// Seed offsets workload randomness (fixed default for repeatability).
	Seed int64
	// JSONDir, when non-empty, is where experiments that emit
	// machine-readable artifacts write their BENCH_<id>.json files.
	JSONDir string
}

func (p Params) norm() Params {
	if p.Scale <= 0 {
		p.Scale = 0.25
	}
	if p.Seed == 0 {
		p.Seed = 20230325 // the conference date; any fixed seed works
	}
	return p
}

// datasetBytes is the paper's 80 GB dataset, scaled.
func (p Params) datasetBytes() int64 { return int64(80 * float64(1<<20) * p.Scale) }

// readOps is the paper's 1 M read ops, scaled to stay proportionate.
func (p Params) readOps() int {
	n := int(20000 * p.Scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

// ycsbOps is the paper's 1 M YCSB ops, scaled.
func (p Params) ycsbOps() int {
	n := int(12000 * p.Scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

func (p Params) entries(valueSize int) int {
	n := int(p.datasetBytes() / int64(valueSize+16))
	if n < 256 {
		n = 256
	}
	return n
}

// Experiment is one reproducible paper table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params) (*Report, error)
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "Motivation: stalls, deserialization, flush throughput, WA (NoveLSM & MatrixKV)", Fig2Motivation},
		{"fig6", "Micro-benchmarks: read/write throughput vs value size (in-memory mode)", Fig6MicroThroughput},
		{"table1", "Cost analysis: stalls, deserialization, flushing, WA", Table1CostAnalysis},
		{"fig7", "YCSB throughput, workloads Load and A–F (1 KB and 4 KB values)", Fig7YCSB},
		{"table2", "Tail latencies of YCSB workload A (in-memory mode)", Table2TailLatency},
		{"fig8", "Latency over time, YCSB workload A (4 KB values)", Fig8LatencyTimeline},
		{"fig9", "Sensitivity: number of levels / compaction threads", Fig9LevelSweep},
		{"fig10", "Sensitivity: dataset size vs random read/write throughput", Fig10DatasetSweep},
		{"fig11", "Write amplification vs dataset size", Fig11WriteAmp},
		{"fig12", "Sensitivity: MemTable size vs flush latency and throughput", Fig12MemtableSweep},
		{"fig13", "DRAM-NVM-SSD hierarchy: db_bench and YCSB throughput", Fig13SSDMode},
		{"table3", "Tail latencies of YCSB workload A (DRAM-NVM-SSD)", Table3SSDTailLatency},
		{"fig14", "Sensitivity: NVM buffer size (DRAM-NVM-SSD)", Fig14BufferSweep},
		{"ablation", "MioDB design ablations (one-piece flush, zero-copy, parallelism, bloom)", Ablations},
		{"shardscale", "Sharded store: fill/readrandom throughput vs shard count", ShardScale},
		{"membalance", "Adaptive memory governor: skewed shard traffic, adaptive vs static split at equal total memory", MemBalance},
		{"extra-escan", "Bonus: workload E before vs after compactions settle (§5.2 claim)", ExtraScanSettle},
		{"extra-novelsm", "Bonus: NoveLSM flat vs hierarchical vs NoSST (§3.1 claim)", ExtraNoveLSMVariants},
	}
}

// FindExperiment looks an experiment up by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// inMemoryKinds is the §5.1–5.3 comparison set.
func inMemoryKinds() []StoreKind { return []StoreKind{MioDB, MatrixKV, NoveLSM} }

func open(kind StoreKind, mutate ...func(*Config)) (Store, error) {
	cfg := Config{Kind: kind, Simulate: true}
	for _, m := range mutate {
		m(&cfg)
	}
	return OpenStore(cfg)
}

// pass is what an experiment does with one fresh store. By default it
// fills n random keys of valueSize bytes, drains the store with Flush,
// reads reads random keys (none when reads is 0) and takes the store's
// stats, threads goroutines driving both phases; seq makes the phases
// fillseq and readseq. With workloads set it loads n YCSB records
// instead and runs ops operations of each workload in turn, the i-th
// seeded seed+i, with neither drain nor reads.
type pass struct {
	n, valueSize, reads, threads int
	seq                          bool
	seed                         int64

	workloads []string
	ops       int
	tl        *histogram.Timeline
}

// measured is what one pass saw.
type measured struct {
	fill, read RunResult
	runs       []RunResult   // one per workload
	drain      time.Duration // the Flush between fill and read
	st         stats.Snapshot
}

// newPass is the experiments' usual pass at valueSize: the scaled
// dataset, the scaled read count, one goroutine.
func (p Params) newPass(valueSize int) pass {
	return pass{n: p.entries(valueSize), valueSize: valueSize, reads: p.readOps(), threads: 1, seed: p.Seed}
}

// run makes the pass on the store open returned. It takes open's results
// as they come, so a failed open is returned and an opened store is
// closed on every path.
func (ps pass) run(s Store, openErr error) (m measured, err error) {
	if openErr != nil {
		return m, openErr
	}
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	if ps.workloads != nil {
		if m.fill, err = YCSBLoad(s, uint64(ps.n), ps.valueSize); err != nil {
			return m, err
		}
		for i, w := range ps.workloads {
			r, err := YCSBRun(s, w, ps.ops, uint64(ps.n), ps.valueSize, ps.seed+int64(i), ps.tl)
			if err != nil {
				return m, err
			}
			m.runs = append(m.runs, r)
		}
		return m, nil
	}
	if ps.seq {
		m.fill, err = FillSeq(s, ps.n, ps.valueSize)
	} else {
		m.fill, err = FillRandom(s, ps.n, uint64(ps.n), ps.valueSize, ps.seed, ps.threads, 1, Uniform)
	}
	if err != nil {
		return m, err
	}
	t0 := time.Now()
	if err := s.Flush(); err != nil {
		return m, err
	}
	m.drain = time.Since(t0)
	switch {
	case ps.reads == 0:
	case ps.seq:
		m.read, err = ReadSeq(s, ps.reads)
	default:
		m.read, _, err = ReadRandom(s, ps.reads, uint64(ps.n), ps.seed+1, ps.threads)
	}
	m.st = s.Stats()
	return m, err
}

// Fig2Motivation reproduces Figure 2: the baselines' write time split into
// stalls vs useful work, read time split into deserialization vs the
// rest, flushing throughput, and write amplification.
func Fig2Motivation(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig2", "Motivation: NoveLSM and MatrixKV costs (4 KB values)", p.Out)
	rows := [][]string{}
	for _, kind := range []StoreKind{NoveLSM, MatrixKV} {
		m, err := p.newPass(4 << 10).run(open(kind))
		if err != nil {
			return nil, err
		}
		st := m.st
		flushMBps := 0.0
		if st.FlushTime > 0 {
			flushMBps = float64(st.FlushBytes) / st.FlushTime.Seconds() / (1 << 20)
		}
		rows = append(rows, []string{
			string(kind),
			msec(m.fill.Duration), msec(st.IntervalStall + st.CumulativeStall),
			msec(m.read.Duration), msec(st.DeserializeTime),
			f1(flushMBps),
			f2(st.WriteAmplification),
		})
	}
	r.Table([]string{"store", "write-ms", "stall-ms", "read-ms", "deser-ms", "flush-MB/s", "WA"}, rows)
	r.Printf("shape: both baselines lose a large share of write time to stalls and of read time to deserialization; WA well above 3.")
	return r, nil
}

// Fig6MicroThroughput reproduces Figure 6: random/sequential write and
// read throughput across value sizes for the in-memory mode.
func Fig6MicroThroughput(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig6", "db_bench throughput vs value size (KIOPS, in-memory mode)", p.Out)
	header := []string{"store", "value", "fillrandom", "fillseq", "readrandom", "readseq"}
	rows := [][]string{}
	for _, kind := range inMemoryKinds() {
		for _, vs := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			// Random write + random read, then sequential write +
			// sequential read on a fresh instance.
			rnd, err := p.newPass(vs).run(open(kind))
			if err != nil {
				return nil, err
			}
			ps := p.newPass(vs)
			ps.seq = true
			seq, err := ps.run(open(kind))
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				string(kind), fmt.Sprintf("%dK", vs>>10),
				f1(rnd.fill.KIOPS), f1(seq.fill.KIOPS), f1(rnd.read.KIOPS), f1(seq.read.KIOPS),
			})
		}
	}
	r.Table(header, rows)
	r.Printf("shape: MioDB leads random writes at every value size (paper: 2.5×/8.3× avg) and reads degrade least with value size.")
	return r, nil
}

// Table1CostAnalysis reproduces Table 1: interval stalls, cumulative
// stalls, deserialization, flushing, and write amplification for the
// three stores.
func Table1CostAnalysis(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("table1", "Cost analysis (4 KB values)", p.Out)
	rows := [][]string{}
	for _, kind := range inMemoryKinds() {
		m, err := p.newPass(4 << 10).run(open(kind))
		if err != nil {
			return nil, err
		}
		st := m.st
		rows = append(rows, []string{
			string(kind),
			msec(st.IntervalStall),
			msec(st.CumulativeStall),
			msec(st.DeserializeTime),
			msec(st.FlushTime),
			f2(st.WriteAmplification),
		})
	}
	r.Table([]string{"store", "interval-stall-ms", "cumulative-stall-ms", "deserialize-ms", "flushing-ms", "WA"}, rows)
	r.Printf("shape: MioDB's measured stall counters stay at or near zero (its writers rotate into the elastic buffer instead of waiting — the deferred backlog shows in the PendingImms gauge), deserialization is near-zero, flushing far faster, and WA ≈ 3 (paper: 2.9× vs 5.6×/6.6×).")
	return r, nil
}

// ycsbPass loads the scaled dataset of valueSize-byte records and runs
// ops operations of each workload.
func (p Params) ycsbPass(valueSize, ops int, workloads ...string) pass {
	ps := p.newPass(valueSize)
	ps.workloads, ps.ops = workloads, ops
	return ps
}

// Fig7YCSB reproduces Figure 7: YCSB Load and A–F throughput for the four
// stores at 1 KB and 4 KB values.
func Fig7YCSB(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig7", "YCSB throughput (KIOPS)", p.Out)
	kinds := []StoreKind{MioDB, MatrixKV, NoveLSM, NoveLSMNoSST}
	workloads := []string{"A", "B", "C", "D", "E", "F"}
	for _, vs := range []int{4 << 10, 1 << 10} {
		header := append([]string{"store", "value", "Load"}, workloads...)
		rows := [][]string{}
		for _, kind := range kinds {
			m, err := p.ycsbPass(vs, p.ycsbOps(), workloads...).run(open(kind))
			if err != nil {
				return nil, err
			}
			row := []string{string(kind), fmt.Sprintf("%dK", vs>>10), f1(m.fill.KIOPS)}
			for _, res := range m.runs {
				row = append(row, f1(res.KIOPS))
			}
			rows = append(rows, row)
		}
		r.Table(header, rows)
	}
	r.Printf("shape: MioDB leads Load and the write-dominant A/F (paper: 12.1×/2.8× on Load); NoveLSM-NoSST wins scans (E) right after load, as the paper observes.")
	return r, nil
}

// Table2TailLatency reproduces Table 2: workload A latency percentiles at
// 4 KB and 1 KB values, in-memory mode.
func Table2TailLatency(p Params) (*Report, error) {
	return tailLatencyTable(p, "table2", false)
}

func tailLatencyTable(p Params, id string, ssd bool) (*Report, error) {
	p = p.norm()
	title := "YCSB-A tail latencies (µs)"
	if ssd {
		title += " — DRAM-NVM-SSD"
	}
	r := NewReport(id, title, p.Out)
	rows := [][]string{}
	for _, vs := range []int{4 << 10, 1 << 10} {
		for _, kind := range inMemoryKinds() {
			m, err := p.ycsbPass(vs, p.ycsbOps(), "A").run(open(kind, func(c *Config) { c.SSD = ssd }))
			if err != nil {
				return nil, err
			}
			l := m.runs[0].Latency
			rows = append(rows, []string{
				fmt.Sprintf("%dK", vs>>10), string(kind),
				usec(l.Mean), usec(l.P90), usec(l.P99), usec(l.P999),
			})
		}
	}
	r.Table([]string{"value", "store", "avg", "p90", "p99", "p99.9"}, rows)
	r.Printf("shape: MioDB's p99.9 sits an order of magnitude (or more) below the baselines (paper: 17.1×/21.7× lower).")
	return r, nil
}

// Fig8LatencyTimeline reproduces Figure 8: the latency-over-time trace of
// workload A, exposing the baselines' periodic stall spikes.
func Fig8LatencyTimeline(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig8", "YCSB-A latency over time (4 KB values)", p.Out)
	for _, kind := range inMemoryKinds() {
		ps := p.ycsbPass(4<<10, p.ycsbOps(), "A")
		ps.tl = histogram.NewTimeline(20 * time.Millisecond)
		m, err := ps.run(open(kind))
		if err != nil {
			return nil, err
		}
		r.Printf("%-14s spike-factor=%6.1f  max=%8s µs  trace: %s",
			kind, ps.tl.SpikeFactor(), usec(m.runs[0].Latency.Max), ps.tl.Sparkline())
	}
	r.Printf("shape: the baselines' traces show tall periodic spikes (write stalls); MioDB's trace is flat (paper Fig 8).")
	return r, nil
}

// Fig9LevelSweep reproduces Figure 9: MioDB's write latency/throughput
// and read throughput as the number of elastic-buffer levels (= compaction
// threads) grows.
func Fig9LevelSweep(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig9", "MioDB: levels (compaction threads) sensitivity", p.Out)
	rows := [][]string{}
	for _, levels := range []int{2, 4, 6, 8, 10} {
		m, err := p.newPass(4 << 10).run(open(MioDB, func(c *Config) { c.Levels = levels }))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", levels),
			usec(m.fill.Latency.Mean), f1(m.fill.KIOPS), f1(m.read.KIOPS),
		})
	}
	r.Table([]string{"levels", "write-avg-µs", "write-KIOPS", "read-KIOPS"}, rows)
	r.Printf("shape: write performance is flat across levels (flushing is the only write-path cost); read throughput improves with depth and saturates around 8 (the paper's chosen default).")
	return r, nil
}

// datasetFractions are Figures 10 and 11's dataset sizes as fractions of
// the 80 MB base (paper: 40–200 GB → 40–200 MB).
var datasetFractions = []float64{0.5, 1.0, 1.5, 2.0, 2.5}

// Fig10DatasetSweep reproduces Figure 10: random write and read
// throughput as the dataset grows.
func Fig10DatasetSweep(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig10", "Dataset size sensitivity (KIOPS)", p.Out)
	rows := [][]string{}
	for _, kind := range inMemoryKinds() {
		for _, f := range datasetFractions {
			ps := p.newPass(4 << 10)
			ps.n = int(float64(ps.n) * f)
			m, err := ps.run(open(kind))
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				string(kind),
				fmt.Sprintf("%dMB-equiv", int(80*f*p.Scale)),
				f1(m.fill.KIOPS), f1(m.read.KIOPS),
			})
		}
	}
	r.Table([]string{"store", "dataset", "fillrandom", "readrandom"}, rows)
	r.Printf("shape: the baselines degrade steeply with dataset size; MioDB's write throughput is nearly flat and its reads drop gently (paper: −33.5%% over 5×).")
	return r, nil
}

// Fig11WriteAmp reproduces Figure 11: write amplification vs dataset size.
func Fig11WriteAmp(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig11", "Write amplification vs dataset size", p.Out)
	rows := [][]string{}
	for _, kind := range inMemoryKinds() {
		for _, f := range datasetFractions {
			ps := p.newPass(4 << 10)
			ps.n, ps.reads = int(float64(ps.n)*f), 0
			m, err := ps.run(open(kind))
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				string(kind),
				fmt.Sprintf("%dMB-equiv", int(80*f*p.Scale)),
				f2(m.st.WriteAmplification),
			})
		}
	}
	r.Table([]string{"store", "dataset", "WA"}, rows)
	r.Printf("shape: MioDB stays near its ≈3 bound at every size; the baselines' WA grows with the dataset (paper: up to 5×/4.9× higher at 200 GB).")
	return r, nil
}

// Fig12MemtableSweep reproduces Figure 12: how the DRAM MemTable size
// affects flush latency/throughput and random read/write throughput.
func Fig12MemtableSweep(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig12", "MemTable size sensitivity", p.Out)
	rows := [][]string{}
	for _, kind := range inMemoryKinds() {
		for _, ms := range []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10} {
			m, err := p.newPass(4 << 10).run(open(kind, func(c *Config) { c.MemTableSize = ms }))
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				string(kind), fmt.Sprintf("%dK", ms>>10),
				msec(avgFlush(m.st)), msec(m.st.FlushTime),
				f1(m.fill.KIOPS), f1(m.read.KIOPS),
			})
		}
	}
	r.Table([]string{"store", "memtable", "flush-avg-ms", "flush-total-ms", "fillrandom-KIOPS", "readrandom-KIOPS"}, rows)
	r.Printf("shape: MioDB's per-flush latency is an order of magnitude below the baselines (paper: 37.6×/11.9× shorter) and total flush time is flat; throughput barely moves with memtable size for all stores.")
	return r, nil
}

// avgFlush is the mean time of one flush.
func avgFlush(st stats.Snapshot) time.Duration {
	if st.Flushes == 0 {
		return 0
	}
	return st.FlushTime / time.Duration(st.Flushes)
}

func onSSD(c *Config) { c.SSD = true }

// Fig13SSDMode reproduces Figure 13: the DRAM-NVM-SSD hierarchy —
// db_bench random read/write plus YCSB Load and A–F throughput.
func Fig13SSDMode(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig13", "DRAM-NVM-SSD hierarchy throughput (KIOPS, 4 KB values)", p.Out)
	const valueSize = 4 << 10
	// db_bench half.
	rows := [][]string{}
	for _, kind := range inMemoryKinds() {
		m, err := p.newPass(valueSize).run(open(kind, onSSD))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{string(kind), f1(m.fill.KIOPS), f1(m.read.KIOPS)})
	}
	r.Table([]string{"store", "fillrandom", "readrandom"}, rows)

	// YCSB half. SSD-mode scans cost tens of milliseconds each (every
	// scan seeks one block in every live SSTable at ~80 µs), so the op
	// count is reduced to a third of the in-memory experiments' — still
	// thousands of operations per cell, and throughput is rate-like.
	ssdOps := max(p.ycsbOps()/3, 1000)
	workloads := []string{"A", "B", "C", "D", "E", "F"}
	header := append([]string{"store", "Load"}, workloads...)
	rows = [][]string{}
	for _, kind := range inMemoryKinds() {
		m, err := p.ycsbPass(valueSize, ssdOps, workloads...).run(open(kind, onSSD))
		if err != nil {
			return nil, err
		}
		row := []string{string(kind), f1(m.fill.KIOPS)}
		for _, res := range m.runs {
			row = append(row, f1(res.KIOPS))
		}
		rows = append(rows, row)
	}
	r.Table(header, rows)
	r.Printf("shape: MioDB's elastic buffer absorbs bursts before the SSD, keeping its lead (paper: 10.5×/11.2× random write, 11.8×/12.1× Load).")
	return r, nil
}

// Table3SSDTailLatency reproduces Table 3: workload A percentiles in the
// DRAM-NVM-SSD hierarchy.
func Table3SSDTailLatency(p Params) (*Report, error) {
	return tailLatencyTable(p, "table3", true)
}

// Fig14BufferSweep reproduces Figure 14: random read/write throughput as
// the baselines' NVM buffer grows (MioDB's buffer is elastic, so it
// appears as one configuration).
func Fig14BufferSweep(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("fig14", "NVM buffer size sensitivity (DRAM-NVM-SSD, KIOPS)", p.Out)
	rows := [][]string{}
	run := func(kind StoreKind, label string, bufferSize int64) error {
		m, err := p.newPass(4 << 10).run(open(kind, onSSD, func(c *Config) { c.NVMBufferSize = bufferSize }))
		if err != nil {
			return err
		}
		rows = append(rows, []string{string(kind), label, f1(m.fill.KIOPS), f1(m.read.KIOPS)})
		return nil
	}
	if err := run(MioDB, "elastic", 0); err != nil {
		return nil, err
	}
	for _, kind := range []StoreKind{MatrixKV, NoveLSM} {
		for _, bs := range []int64{8 << 20, 16 << 20, 32 << 20, 64 << 20} {
			if err := run(kind, fmt.Sprintf("%dMB", bs>>20), bs); err != nil {
				return nil, err
			}
		}
	}
	r.Table([]string{"store", "buffer", "fillrandom", "readrandom"}, rows)
	r.Printf("shape: bigger fixed buffers help the baselines only so far (reads can even regress); MioDB's single elastic configuration beats every buffer size (paper: 2.3×/4.9× write at 64 GB).")
	return r, nil
}

// Ablations quantifies each MioDB design choice DESIGN.md calls out.
func Ablations(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("ablation", "MioDB design ablations (4 KB values)", p.Out)
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline", func(*Config) {}},
		{"no-one-piece-flush", func(c *Config) { c.DisableOnePieceFlush = true }},
		{"no-zero-copy-merge", func(c *Config) { c.DisableZeroCopyMerge = true }},
		{"no-parallel-compaction", func(c *Config) { c.DisableParallelCompaction = true }},
		{"no-bloom-filters", func(c *Config) { c.DisableBloom = true }},
		{"no-wal", func(c *Config) { c.DisableWAL = true }},
	}
	rows := [][]string{}
	for _, v := range variants {
		m, err := p.newPass(4 << 10).run(open(MioDB, v.mutate))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			v.name,
			f1(m.fill.KIOPS), f1(m.read.KIOPS),
			f2(m.st.WriteAmplification),
			msec(avgFlush(m.st)), msec(m.drain),
		})
	}
	r.Table([]string{"variant", "fillrandom-KIOPS", "readrandom-KIOPS", "WA", "flush-avg-ms", "drain-ms"}, rows)
	r.Printf("shape: removing one-piece flush slows flushes; removing zero-copy raises WA; removing bloom filters hurts reads; removing parallel compaction slows the drain.")
	return r, nil
}

// RunAll executes every experiment in order.
func RunAll(p Params) ([]*Report, error) {
	var out []*Report
	for _, e := range Experiments() {
		rep, err := e.Run(p)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
