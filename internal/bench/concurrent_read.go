package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"miodb/internal/histogram"
	"miodb/internal/kvstore"
	"miodb/internal/ycsb"
)

// ConcurrentReadRandom drives total point lookups from `readers`
// goroutines over keys drawn uniformly from [0, keySpace) — db_bench's
// readrandom under the multi-client regime the lock-free read path
// targets. total is split evenly across readers; the remainder goes to
// reader 0. Misses are tolerated and counted (fillrandom leaves gaps).
func ConcurrentReadRandom(s kvstore.Store, total int, keySpace uint64, seed int64, readers int) (RunResult, int, error) {
	if readers < 1 {
		readers = 1
	}
	h := histogram.New()
	var wg sync.WaitGroup
	var misses atomic.Int64
	errCh := make(chan error, readers)
	per := total / readers
	start := time.Now()
	for g := 0; g < readers; g++ {
		n := per
		if g == 0 {
			n += total - per*readers
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			choose := ycsb.NewUniformChooser(seed + int64(g)*7919)
			for i := 0; i < n; i++ {
				k := dbKey(choose.Choose(keySpace))
				t0 := time.Now()
				_, err := s.Get(k)
				h.Record(time.Since(t0))
				if err == kvstore.ErrNotFound {
					misses.Add(1)
				} else if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return RunResult{}, int(misses.Load()), err
	default:
	}
	return finishRun(int64(total), time.Since(start), h, nil), int(misses.Load()), nil
}

// ConcurrentMixed drives total operations from `threads` goroutines, each
// reading with probability readFrac and updating otherwise, over a
// zipfian key popularity (YCSB's scrambled-zipfian, theta 0.99).
// readFrac 0.95 is YCSB-B (read-heavy), 1.0 is YCSB-C (read-only) — the
// mixed regimes where the read path's independence from db.mu (and from
// the writers contending on it) is measured.
func ConcurrentMixed(s kvstore.Store, total int, keySpace uint64, valueSize int, seed int64, threads int, readFrac float64) (RunResult, error) {
	if threads < 1 {
		threads = 1
	}
	h := histogram.New()
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	per := total / threads
	start := time.Now()
	for g := 0; g < threads; g++ {
		n := per
		if g == 0 {
			n += total - per*threads
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			choose := ycsb.NewZipfianChooser(keySpace, seed+int64(g)*7919)
			opRnd := ycsb.NewUniformChooser(seed + int64(g)*104729 + 1)
			pool := newValuePool(g+1, valueSize, 64)
			for i := 0; i < n; i++ {
				k := dbKey(choose.Choose(keySpace))
				// Scale to 1e6 buckets for the read/update coin flip.
				isRead := readFrac >= 1 || float64(opRnd.Choose(1_000_000)) < readFrac*1_000_000
				t0 := time.Now()
				if isRead {
					if _, err := s.Get(k); err != nil && err != kvstore.ErrNotFound {
						errCh <- fmt.Errorf("thread %d: %w", g, err)
						return
					}
				} else {
					if err := s.Put(k, pool.value()); err != nil {
						errCh <- fmt.Errorf("thread %d: %w", g, err)
						return
					}
				}
				h.Record(time.Since(t0))
			}
		}(g, n)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return RunResult{}, err
	default:
	}
	return finishRun(int64(total), time.Since(start), h, nil), nil
}

// ReadScale is the multi-reader experiment behind the lock-free read
// path: read throughput vs thread count, the epoch-pinned read path on
// one engine and over four shards, for read-only uniform keys and the
// YCSB-B (95/5 zipfian) and YCSB-C (100/0 zipfian) mixes.
func ReadScale(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("readscale", "Multi-reader throughput (KIOPS): epoch-pinned reads", p.Out)
	const valueSize = 128
	n := int(24000 * p.Scale)
	if n < 4000 {
		n = 4000
	}
	ops := int(48000 * p.Scale)
	if ops < 8000 {
		ops = 8000
	}
	arms := []struct {
		name string
		cfg  Config
	}{
		{"miodb", Config{Kind: MioDB, Simulate: true}},
		{"miodb-sh4", Config{Kind: MioDB, Simulate: true, Shards: 4}},
	}
	workloads := []struct {
		name     string
		readFrac float64 // <0 means uniform read-only (no mixing, no zipf)
	}{
		{"readonly", -1},
		{"ycsb-b", 0.95},
		{"ycsb-c", 1.0},
	}
	// Best-of-three per cell, as in the concurrent-write experiment:
	// scheduler noise on small hosts swamps single-shot runs.
	const reps = 3
	jr := NewJSONReport("readscale", map[string]interface{}{
		"entries": n, "ops": ops, "value_size": valueSize, "reps": reps,
	})
	for _, wl := range workloads {
		rows := [][]string{}
		for _, threads := range []int{1, 2, 4, 8, 16} {
			row := []string{fmt.Sprintf("%d", threads)}
			for _, arm := range arms {
				best := 0.0
				var bestStats struct {
					fpRate float64
					swept  int64
				}
				var runs []RunResult
				for rep := 0; rep < reps; rep++ {
					s, err := OpenStore(arm.cfg)
					if err != nil {
						return nil, err
					}
					// Preload and quiesce so the measured phase reads a
					// settled multi-level structure.
					if _, err := FillRandom(s, n, uint64(n), valueSize, p.Seed, nil); err != nil {
						s.Close()
						return nil, err
					}
					if err := s.Flush(); err != nil {
						s.Close()
						return nil, err
					}
					s.ResetCounters()
					var res RunResult
					if wl.readFrac < 0 {
						res, _, err = ConcurrentReadRandom(s, ops, uint64(n), p.Seed+int64(rep)+1, threads)
					} else {
						res, err = ConcurrentMixed(s, ops, uint64(n), valueSize, p.Seed+int64(rep)+1, threads, wl.readFrac)
					}
					if err != nil {
						s.Close()
						return nil, err
					}
					st := s.Stats()
					s.Close()
					runs = append(runs, res)
					if res.KIOPS > best {
						best = res.KIOPS
						bestStats.fpRate = st.BloomFalsePositiveRate
						bestStats.swept = st.VersionsSwept
					}
				}
				jr.AddRuns(
					fmt.Sprintf("%s/threads=%d/%s", wl.name, threads, arm.name),
					map[string]interface{}{"workload": wl.name, "threads": threads, "arm": arm.name},
					runs,
					map[string]float64{"bloom_fp_rate": bestStats.fpRate},
				)
				row = append(row, f1(best))
				if arm.name == "miodb" {
					row = append(row, fmt.Sprintf("%.3f", bestStats.fpRate))
				}
			}
			rows = append(rows, row)
		}
		r.Table([]string{"threads", "miodb", "bloom-fp", "miodb-sh4"}, rows)
		r.Printf("(%s, %d entries preloaded, %d ops, best of %d runs)", wl.name, n, ops, reps)
	}
	r.Printf("shape: reads pin their version through striped epoch slots and never take db.mu, so the miodb arm scales with core count. The bloom-fp column is the measured filter false-positive rate during the run. The miodb-sh4 arm partitions the same build over 4 engines; reads were already lock-free, so sharding mostly helps the mixed workloads, where each shard's writers contend on a quarter of the keyspace.")
	if p.JSONDir != "" {
		path := filepath.Join(p.JSONDir, "BENCH_readscale.json")
		if err := jr.Write(path); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		r.Printf("wrote %s", path)
	}
	return r, nil
}
