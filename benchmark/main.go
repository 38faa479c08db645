// Command benchmark is the repository's one benchmark: five workloads
// over the engine as miodb.Open builds it, every answer verified, every
// metric printed by name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	out       string
	smoke     bool
	selfcheck bool
	stamp     string
}

// runSeconds is how long one run measures per workload: with set-up and
// verification a run then takes 23–36 s on the reference host, which
// fits the driver's 92 runs (four gated workloads) into its 57 minutes
// with a fifth to spare for the hours in which the host is slower.
const runSeconds = 22

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per workload (trials repeat until reached)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, layer replay and ledger; prints the per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory to write the traced run's spans to (default: keep them in memory only)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "about 1% of the op counts, one trial: schema and correctness only")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the untraced suite twice and compare the two runs against the bounds")
	flag.StringVar(&cfg.stamp, "stamp", "commit=unknown dirty=unknown", "commit stamp (run.sh fills it in)")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json from the tables in this program and exit")
	flag.Parse()
	cfg.trace = trace != 0

	if *printJSON {
		fmt.Println(benchmarkJSON())
		return
	}
	var run []*spec
	for i := range specs {
		if cfg.workload == "all" || cfg.workload == specs[i].name {
			run = append(run, &specs[i])
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.selfcheck {
		if !selfcheck(cfg, run) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, s := range run {
		res, err := runWorkload(cfg, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// stampLine is printed above every output: what was measured, where.
func stampLine(cfg config, s *spec) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return fmt.Sprintf("# %s go=%s nproc=%d GOMAXPROCS=%d GOGC=%s seed=%d Simulate=false workload=%s keys=%d ops_per_trial=%d threads=%d value_len=%d",
		cfg.stamp, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, cfg.seed,
		s.name, s.keys, s.ops, s.threads, s.valueLen)
}

// sized applies --smoke and the host's core count to a spec. A workload
// never runs more foreground threads or connections than the host has
// cores: the load generator must not be what is measured.
func sized(cfg config, s *spec) *spec {
	c := *s
	if cfg.smoke {
		c = c.scaled(0.01)
	}
	if n := runtime.NumCPU(); c.threads > n {
		c.threads = n
	}
	return &c
}

// runTrials repeats trials of one workload until they have measured for
// cfg.seconds (one trial under --smoke).
func runTrials(cfg config, s *spec) ([]*trial, error) {
	var trials []*trial
	var measured float64
	for i := 0; ; i++ {
		t := &trial{spec: s, seed: deriveSeed(cfg.seed, uint64(i))}
		if err := t.run(); err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		trials = append(trials, t)
		printTrial(i, t)
		measured += t.res.wallS + t.res.openLoopS
		if cfg.smoke || measured >= cfg.seconds {
			return trials, nil
		}
	}
}

func runWorkload(cfg config, base *spec) (result, error) {
	s := sized(cfg, base)
	fmt.Println(stampLine(cfg, s))
	if cfg.trace {
		return runTraced(cfg, s)
	}
	trials, err := runTrials(cfg, s)
	if err != nil {
		return result{}, err
	}
	values := endToEndValues(trials)
	printEndToEnd(s, trials, values)
	return makeResult(trials, endToEnd, values), nil
}

func makeResult(trials []*trial, defs []metricDef, values map[string]float64) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, t := range trials {
		res.Attempted += t.res.attempted
		res.Failed += t.res.failed
		for _, msg := range t.fail.first {
			fmt.Fprintln(os.Stderr, "FAILED:", msg)
		}
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// benchmarkJSON renders BENCHMARK.json from the tables the program
// itself uses, so the file and the program cannot name different things.
func benchmarkJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, s := range specs {
		if s.ungated == "" {
			doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
		}
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return strings.TrimSpace(string(b))
}
