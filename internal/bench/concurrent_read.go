package bench

import (
	"fmt"
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
