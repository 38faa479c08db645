package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at about 1% of its size, untraced and
// traced, and asserts only what does not depend on timing: the output
// schema, every metric name present, and no failed op.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for i := range specs {
			cfg := config{seed: 1, smoke: true, trace: traced, stamp: "smoke"}
			res, err := runWorkload(cfg, &specs[i])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", specs[i].name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", specs[i].name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", specs[i].name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", specs[i].name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", specs[i].name, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository to
// the tables this program prints from.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("BENCHMARK.json differs from --benchmark-json; regenerate it:\n%s", strings.TrimSpace(benchmarkJSON()))
	}
}
