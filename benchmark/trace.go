package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hostSpin times a fixed dependent-multiply loop: a figure for how fast
// the host was while this run was measured, to read the timings against.
func hostSpin() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink += x
	return float64(time.Since(t0)) / 1e6
}

// runTraced is --trace 1: one untraced trial (the end-to-end reference
// and the base of the overhead figure), the same trial again with op
// spans kept and the backlog sampled, then the layer replay and probes
// over the same op stream, then the ledger.
func runTraced(cfg config, s *spec) (result, error) {
	u := &trial{spec: s, seed: deriveSeed(cfg.seed, 0), openLoop: s.wire}
	if err := u.run(); err != nil {
		return result{}, fmt.Errorf("untraced trial: %w", err)
	}
	tr := &trial{spec: s, seed: u.seed, traced: true, openLoop: s.wire}
	if err := tr.run(); err != nil {
		return result{}, fmt.Errorf("traced trial: %w", err)
	}

	var stream []op
	for _, w := range tr.workers {
		stream = append(stream, w.stream...)
	}
	rp, err := newReplayer(s, tr.ks, &tr.fail, cfg.out != "")
	if err != nil {
		return result{}, err
	}
	limit := (96 << 20) / s.valueLen
	if err := rp.run(stream, limit); err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	rp.readProbes(stream)
	probes, err := rp.probes(stream)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	if s.wire {
		wp, err := wireProbes(tr)
		if err != nil {
			return result{}, fmt.Errorf("wire probes: %w", err)
		}
		for k, x := range wp {
			probes[k] = x
		}
		rtt, cpu, err := tr.noopWire()
		if err != nil {
			return result{}, fmt.Errorf("noop wire: %w", err)
		}
		probes["server.noop_rtt_p50_us"], probes["server.noop_cpu_us_per_op"] = rtt, cpu
	}
	tr.res.attempted += rp.checked
	tr.res.failed = int(tr.fail.n.Load())

	in := traceInputs{s: s, untraced: &u.res, traced: &tr.res, rp: rp, probes: probes, spinMs: hostSpin()}
	values, ledger := layerValues(in)
	printLayers(in, values, ledger)
	if cfg.out != "" {
		if err := writeSpans(cfg.out, s, tr, rp); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	return makeResult([]*trial{u, tr}, perLayer, values), nil
}

// readProbes makes sure the read layers were called: a stream with no
// Get or Scan of its own gets a sample of its keys read back through the
// replayed structures, so every layer has a figure on every workload.
func (r *replayer) readProbes(stream []op) {
	ids := probeKeys(stream, 5000)
	if r.stat[lMemGet].calls == 0 {
		for _, id := range ids {
			r.get(id)
		}
	}
	if r.stat[lSeek].calls == 0 {
		for _, id := range ids[:len(ids)/10] {
			r.scan(id)
		}
	}
}

// writeSpans writes the traced run's spans, one JSON object per line:
// the harness's op spans (one per user op, with its thread) and the
// replay's layer spans (one per call, parent = index of the user op).
func writeSpans(dir string, s *spec, tr *trial, rp *replayer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, s.name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, wk := range tr.workers {
		for k := opKind(0); k < numKinds; k++ {
			for i, start := range wk.starts[k] {
				fmt.Fprintf(w, `{"span":"op","name":%q,"thread":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
					kindNames[k], wk.id, start, wk.lat[k][i])
			}
		}
	}
	for _, sp := range rp.spans {
		fmt.Fprintf(w, `{"span":"layer","name":%q,"parent_op":%d,"start_ns":%d,"dur_ns":%d,"units":%d}`+"\n",
			layerNames[sp.layer], sp.op, sp.startNs, sp.durNs, sp.units)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
