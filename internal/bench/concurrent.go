package bench

import (
	"fmt"
	"sync"
	"time"

	"miodb/internal/histogram"
	"miodb/internal/kvstore"
	"miodb/internal/ycsb"
)

// KeyDist selects the key distribution for concurrent fill workloads.
type KeyDist int

const (
	// Uniform draws keys uniformly from [0, keySpace).
	Uniform KeyDist = iota
	// Zipfian draws keys with YCSB's scrambled-zipfian skew (theta 0.99),
	// the contended regime: many writers hammering a hot key range all
	// funnel into the same memtable.
	Zipfian
)

func (d KeyDist) chooser(keySpace uint64, seed int64) ycsb.Chooser {
	if d == Zipfian {
		return ycsb.NewZipfianChooser(keySpace, seed)
	}
	return ycsb.NewUniformChooser(seed)
}

// valuePool pre-generates a cycle of distinct values so the per-op cost of
// a concurrent driver is choosing a key, not seeding a PRNG: with many
// writer goroutines on few cores, per-op value generation would otherwise
// dominate the profile and mask the store's own behavior.
type valuePool struct {
	vals [][]byte
	next int
}

func newValuePool(gen, size, n int) *valuePool {
	p := &valuePool{vals: make([][]byte, n)}
	for i := range p.vals {
		p.vals[i] = dbValue(uint64(i), gen, size)
	}
	return p
}

func (p *valuePool) value() []byte {
	v := p.vals[p.next]
	p.next++
	if p.next == len(p.vals) {
		p.next = 0
	}
	return v
}

// ConcurrentFill drives total writes from `writers` goroutines issuing
// Put operations as fast as the store admits them — the multi-client
// regime a one-goroutine-per-connection server produces. Latencies from
// all writers land in one shared (thread-safe) histogram. total is split
// evenly across writers; the remainder goes to writer 0.
func ConcurrentFill(s kvstore.Store, total int, keySpace uint64, valueSize int, seed int64, writers int, dist KeyDist) (RunResult, error) {
	if writers < 1 {
		writers = 1
	}
	h := histogram.New()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	per := total / writers
	start := time.Now()
	for g := 0; g < writers; g++ {
		n := per
		if g == 0 {
			n += total - per*writers
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			choose := dist.chooser(keySpace, seed+int64(g)*7919)
			pool := newValuePool(g+1, valueSize, 64)
			for i := 0; i < n; i++ {
				k := dbKey(choose.Choose(keySpace))
				v := pool.value()
				t0 := time.Now()
				if err := s.Put(k, v); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", g, err)
					return
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

// ConcurrentBatchFill is ConcurrentFill with each writer grouping its
// operations into client-side batches of batchSize before submitting them
// through the store's batch interface (kvstore.BatchWriter). Stores
// without batch support fall back to per-op Puts.
func ConcurrentBatchFill(s kvstore.Store, total int, keySpace uint64, valueSize int, seed int64, writers, batchSize int, dist KeyDist) (RunResult, error) {
	bw, ok := s.(kvstore.BatchWriter)
	if batchSize <= 1 || !ok {
		return ConcurrentFill(s, total, keySpace, valueSize, seed, writers, dist)
	}
	if writers < 1 {
		writers = 1
	}
	h := histogram.New()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	per := total / writers
	start := time.Now()
	for g := 0; g < writers; g++ {
		n := per
		if g == 0 {
			n += total - per*writers
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			choose := dist.chooser(keySpace, seed+int64(g)*7919)
			pool := newValuePool(g+1, valueSize, 64)
			for done := 0; done < n; {
				m := batchSize
				if n-done < m {
					m = n - done
				}
				ops := make([]kvstore.BatchOp, 0, m)
				for i := 0; i < m; i++ {
					ops = append(ops, kvstore.BatchOp{
						Key:   dbKey(choose.Choose(keySpace)),
						Value: pool.value(),
					})
				}
				t0 := time.Now()
				if err := bw.WriteBatch(ops); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
				h.Record(time.Since(t0))
				done += m
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
