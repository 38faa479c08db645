package main

import (
	"fmt"
	"math"
)

// metricDef names one metric. bound is the share of the baseline median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
	what               string
}

// endToEnd is what a user of the store sees and the host lets the
// driver hold to a bound. Every workload reports every one of them, and
// none is ever zero. CPU per op, per-kind latencies and tails are
// per-layer driver.* diagnostics: on the reference host they move by more
// than the contract's largest bound from one hour to the next (README.md
// has the measurements, and which of the issue's thirteen metrics went
// where, and why).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "open + preload + drain + input generation before the clock starts"},
	{"ops_per_s", "ops/s", "higher", 0.25, "measured ops ÷ wall time from first op until the store is idle (read-only: until last op)"},
	{"write_amp", "ratio", "lower", 0.02, "NVM device bytes written ÷ user key+value bytes, Open to final drain"},
	{"space_amp", "ratio", "lower", 0.10, "NVMUsage() after the final drain ÷ live user bytes"},
	{"alloc_b_per_op", "B", "lower", 0.05, "Go heap bytes allocated over the measured interval ÷ ops"},
}

func endToEndOf(r *trialResult) map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"setup_s":        r.setupS,
		"ops_per_s":      ops / r.wallS,
		"write_amp":      float64(r.after.nvm.BytesWritten) / float64(r.after.st.UserBytesWritten),
		"space_amp":      float64(r.nvmUsage) / float64(r.liveBytes),
		"alloc_b_per_op": float64(r.allocBytes) / ops,
	}
}

// endToEndValues folds the run's trials into one figure per metric.
// Throughput is pooled over the trials (Σ ops ÷ Σ time), a mean and not
// a median, because on the reference host a workload's trials fall into
// two speed modes about 20% apart that last a few trials each: the median
// of seven trials jumps from one mode to the other, their mean moves by
// the share (ten runs of mixed-zipf: 11.7% spread with medians, 6.6% with
// means; README.md has the table). Set-up time and the counts are
// medians: set-up has outliers and no modes, the counts have neither.
func endToEndValues(trials []*trial) map[string]float64 {
	per := map[string][]float64{}
	var ops, wallS float64
	for _, t := range trials {
		for name, v := range endToEndOf(&t.res) {
			per[name] = append(per[name], v)
		}
		ops += float64(t.res.ops)
		wallS += t.res.wallS
	}
	out := map[string]float64{}
	for name, v := range per {
		out[name] = median(v)
	}
	out["ops_per_s"] = ops / wallS
	return out
}

func printEndToEnd(s *spec, trials []*trial, values map[string]float64) {
	var ops, samples, attempted, failed int
	for _, t := range trials {
		ops += t.res.ops
		samples += t.res.latAll.n
		attempted += t.res.attempted
		failed += t.res.failed
	}
	fmt.Printf("%s: %d trials, %d ops in the clock, %d latency samples; ops_per_s is pooled over the trials, the rest are medians over them\n",
		s.name, len(trials), ops, samples)
	for _, d := range endToEnd {
		fmt.Printf("  %-16s %14.4f %-6s (%s is better, bound %.0f%%)  %s\n",
			d.name, values[d.name], d.unit, d.better, d.bound*100, d.what)
	}
	fmt.Printf("  %-16s %14.6f %-6s %d of %d ops and read-backs failed\n",
		"failed_ops_frac", float64(failed)/float64(attempted), "ratio", failed, attempted)
	if s.ungated != "" {
		fmt.Printf("  not in BENCHMARK.json: %s\n", s.ungated)
	}
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs the untraced suite twice and holds every end-to-end
// metric's two figures against the metric's own bound, in both
// directions: the second run is the same code, so either sign is noise.
func selfcheck(cfg config, run []*spec) bool {
	ok := true
	var lines []string
	for _, base := range run {
		s := sized(cfg, base)
		fmt.Println(stampLine(cfg, s))
		var sets [2]map[string]float64
		for i := range sets {
			trials, err := runTrials(cfg, s)
			if err != nil {
				fmt.Printf("%s: %v\n", s.name, err)
				return false
			}
			for _, t := range trials {
				if t.res.failed > 0 {
					fmt.Printf("%s: %d failed ops: %v\n", s.name, t.res.failed, t.fail.first)
					ok = false
				}
			}
			sets[i] = endToEndValues(trials)
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			diff := math.Abs(worse(d, a, b))
			verdict := "ok"
			if diff > d.bound {
				verdict = "OUTSIDE BOUND"
				ok = false
			}
			lines = append(lines, fmt.Sprintf("  %-14s %-16s %14.4f %14.4f %-6s diff %5.1f%%  bound %3.0f%%  %s",
				s.name, d.name, a, b, d.unit, diff*100, d.bound*100, verdict))
		}
	}
	fmt.Println("selfcheck: two runs of the same code, figure against figure")
	for _, l := range lines {
		fmt.Println(l)
	}
	return ok
}

// printTrial shows one trial's timings, so a run's output says how far
// apart the trials behind each figure were. CPU per op and the latency of
// the mix's most frequent op kind are shown here and not held to a bound.
func printTrial(i int, t *trial) {
	r := &t.res
	ops := float64(r.ops)
	kind := t.spec.primary()
	fmt.Printf("# trial %d: setup_s=%.4f ops_per_s=%.0f cpu_us_per_op=%.3f %s_p50_us=%.3f\n",
		i, r.setupS, ops/r.wallS, r.cpuS*1e6/ops, kindNames[kind], r.lat[kind].p50)
}
