package bench

import (
	"fmt"
	"testing"
)

// BenchmarkConcurrentReads measures multi-reader throughput — the regime
// the epoch-pinned lock-free read path targets. It sweeps 1/2/4/8/16
// reader goroutines doing uniform read-only lookups over a preloaded,
// quiesced store.
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
	for _, threads := range []int{1, 2, 4, 8, 16} {
		name := fmt.Sprintf("readonly/miodb/threads=%d", threads)
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
				r, _, err := ConcurrentReadRandom(s, ops, entries, 2, threads)
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

// TestConcurrentReadRunners smoke-tests the concurrent read driver and
// the read-path observability it feeds: counters must be populated and
// internally consistent after a run.
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
