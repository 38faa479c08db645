package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
)

// Machine-readable benchmark artifacts (BENCH_*.json). Every record
// follows the same repeated-runs shape: each measured cell carries all
// its per-rep throughputs plus the derived best and median, and the
// latency percentiles of the best rep — so downstream tooling can both
// re-derive the summary statistics and spot noisy cells (a wide
// best/median gap) without re-running anything.

// JSONKIOPS summarizes throughput over a cell's repetitions.
type JSONKIOPS struct {
	Best   float64   `json:"best"`
	Median float64   `json:"median"`
	All    []float64 `json:"all"`
}

// JSONLatency holds the best rep's latency percentiles in microseconds.
type JSONLatency struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// JSONTimelineBin is one wall-clock interval of a latency-over-time
// trace: the operations issued during it and their mean/max latency.
type JSONTimelineBin struct {
	StartMs float64 `json:"start_ms"`
	Ops     int64   `json:"ops"`
	MeanUs  float64 `json:"mean_us"`
	MaxUs   float64 `json:"max_us"`
}

// JSONTimeline is a throughput/latency-over-time trace (Fig 8 shape):
// per-bin op counts double as a throughput-over-time series and the
// max column exposes stall-induced tail spikes.
type JSONTimeline struct {
	BinMs float64           `json:"bin_ms"`
	Bins  []JSONTimelineBin `json:"bins"`
}

// JSONResult is one measured cell of a benchmark sweep.
type JSONResult struct {
	Name    string                 `json:"name"`
	Config  map[string]interface{} `json:"config,omitempty"`
	Reps    int                    `json:"reps"`
	Ops     int64                  `json:"ops"`
	KIOPS   JSONKIOPS              `json:"kiops"`
	Latency *JSONLatency           `json:"latency_us,omitempty"`
	// Timeline holds the best rep's latency-over-time trace when the
	// run recorded one (membalance records its memtable-target traces
	// this way).
	Timeline *JSONTimeline `json:"timeline,omitempty"`
	// Extra carries sweep-specific scalars (e.g. mean commit batch size).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// JSONReport is the top-level BENCH_*.json document.
type JSONReport struct {
	Bench   string                 `json:"bench"`
	Go      string                 `json:"go"`
	GOOS    string                 `json:"goos"`
	GOARCH  string                 `json:"goarch"`
	NumCPU  int                    `json:"num_cpu"`
	Config  map[string]interface{} `json:"config,omitempty"`
	Results []JSONResult           `json:"results"`
	Notes   []string               `json:"notes,omitempty"`
}

// NewJSONReport starts a document stamped with the build environment.
func NewJSONReport(benchName string, config map[string]interface{}) *JSONReport {
	return &JSONReport{
		Bench:  benchName,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Config: config,
	}
}

// AddRuns records one cell from its repetitions: best/median throughput
// across all reps, latency percentiles from the best rep.
func (r *JSONReport) AddRuns(name string, config map[string]interface{}, runs []RunResult, extra map[string]float64) {
	if len(runs) == 0 {
		return
	}
	all := make([]float64, len(runs))
	best := runs[0]
	for i, run := range runs {
		all[i] = run.KIOPS
		if run.KIOPS > best.KIOPS {
			best = run
		}
	}
	res := JSONResult{
		Name:   name,
		Config: config,
		Reps:   len(runs),
		Ops:    best.Ops,
		KIOPS:  JSONKIOPS{Best: best.KIOPS, Median: median(all), All: all},
		Extra:  extra,
	}
	if best.Latency.Count > 0 {
		l := best.Latency
		res.Latency = &JSONLatency{
			P50:  l.P50.Seconds() * 1e6,
			P99:  l.P99.Seconds() * 1e6,
			P999: l.P999.Seconds() * 1e6,
			Max:  l.Max.Seconds() * 1e6,
		}
	}
	if best.Timeline != nil {
		if bins := best.Timeline.Bins(); len(bins) > 0 {
			tl := &JSONTimeline{BinMs: best.Timeline.BinWidth().Seconds() * 1e3}
			for _, b := range bins {
				tl.Bins = append(tl.Bins, JSONTimelineBin{
					StartMs: b.Start.Seconds() * 1e3,
					Ops:     b.Count,
					MeanUs:  b.Mean.Seconds() * 1e6,
					MaxUs:   b.Max.Seconds() * 1e6,
				})
			}
			res.Timeline = tl
		}
	}
	r.Results = append(r.Results, res)
}

// Note appends a free-form provenance line.
func (r *JSONReport) Note(line string) { r.Notes = append(r.Notes, line) }

// Write marshals the document to path (indented, trailing newline).
func (r *JSONReport) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median of the values (mean of the middle two for even counts).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
