package bench

import (
	"fmt"
	"testing"
)

// BenchmarkConcurrentReads measures multi-reader throughput — the regime
// the epoch-pinned lock-free read path targets. It sweeps 1/2/4/8/16
// reader goroutines over a preloaded, quiesced store: read-only uniform
// lookups plus the YCSB-B (95/5) and YCSB-C (100/0) zipfian mixes.
//
// Run e.g.:
//
//	go test ./internal/bench -bench ConcurrentReads -benchtime 1x
func BenchmarkConcurrentReads(b *testing.B) {
	const (
		entries   = 8000
		ops       = 16000
		valueSize = 128
	)
	workloads := []struct {
		name     string
		readFrac float64 // <0 = uniform read-only
	}{
		{"readonly", -1},
		{"ycsb-b", 0.95},
		{"ycsb-c", 1.0},
	}
	if testing.Short() {
		workloads = workloads[:1]
	}
	for _, wl := range workloads {
		for _, threads := range []int{1, 2, 4, 8, 16} {
			name := fmt.Sprintf("%s/miodb/threads=%d", wl.name, threads)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := OpenStore(Config{Kind: MioDB, Simulate: true})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := FillRandom(s, entries, entries, valueSize, 1, nil); err != nil {
						b.Fatal(err)
					}
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
					s.ResetCounters()
					b.StartTimer()
					var r RunResult
					if wl.readFrac < 0 {
						r, _, err = ConcurrentReadRandom(s, ops, entries, 2, threads)
					} else {
						r, err = ConcurrentMixed(s, ops, entries, valueSize, 2, threads, wl.readFrac)
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(r.KIOPS*1000, "ops/s")
					st := s.Stats()
					if passed := st.BloomProbes - st.BloomSkips; passed > 0 {
						b.ReportMetric(st.BloomFalsePositiveRate, "bloom-fp-rate")
					}
					s.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// TestConcurrentReadRunners smoke-tests the concurrent read drivers and
// the read-path observability they feed: counters must be populated and
// internally consistent after a mixed run.
func TestConcurrentReadRunners(t *testing.T) {
	t.Run("epoch", func(t *testing.T) {
		s, err := OpenStore(Config{Kind: MioDB})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const n = 3000
		if _, err := FillRandom(s, n, n, 64, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if r, _, err := ConcurrentReadRandom(s, 2000, n, 2, 4); err != nil {
			t.Fatal(err)
		} else if r.Ops != 2000 {
			t.Fatalf("readrandom ops = %d, want 2000", r.Ops)
		}
		if r, err := ConcurrentMixed(s, 2000, n, 64, 3, 4, 0.95); err != nil {
			t.Fatal(err)
		} else if r.Ops != 2000 {
			t.Fatalf("ycsb-b ops = %d, want 2000", r.Ops)
		}
		st := s.Stats()
		if st.Gets == 0 {
			t.Fatal("no gets recorded")
		}
		if st.BloomProbes > 0 {
			if st.BloomSkips > st.BloomProbes {
				t.Fatalf("bloom skips %d > probes %d", st.BloomSkips, st.BloomProbes)
			}
			if st.BloomFalsePositives > st.BloomProbes-st.BloomSkips {
				t.Fatalf("bloom fps %d > passed probes %d", st.BloomFalsePositives, st.BloomProbes-st.BloomSkips)
			}
		}
		if st.LiveVersions < 1 {
			t.Fatalf("live versions = %d, want >= 1", st.LiveVersions)
		}
	})
}
