package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"miodb/internal/histogram"
	"miodb/internal/kvstore"
	"miodb/internal/ycsb"
)

// RunResult summarizes one workload phase.
type RunResult struct {
	Ops      int64
	Duration time.Duration
	// KIOPS is throughput in thousand operations per second — the unit
	// the paper's Figures 6, 7, 13, 14 use.
	KIOPS float64
	// Latency holds the per-op latency distribution (Tables 2/3).
	Latency histogram.Snapshot
	// Timeline, when requested, bins latencies over elapsed time (Fig 8).
	Timeline *histogram.Timeline
}

// dbKey renders a db_bench-style 16-byte key.
func dbKey(i uint64) []byte { return []byte(fmt.Sprintf("%016d", i)) }

// dbValue builds a pseudo-random value; distinct per (index, generation).
func dbValue(i uint64, gen, size int) []byte {
	v := make([]byte, size)
	rnd := rand.New(rand.NewSource(int64(i)*1099511628211 + int64(gen)))
	rnd.Read(v)
	return v
}

// valuePool pre-generates a cycle of distinct values, one pool per driver
// goroutine, so an op picks its value instead of seeding a PRNG for it —
// LevelDB's db_bench likewise hands out slices of one precomputed buffer.
// Stores copy what they keep, so a value can be handed out again.
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

// KeyDist selects the key distribution of a random fill.
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

// An op is one driver goroutine's stream of store calls. prep builds the
// call that starts at the goroutine's op i, with left ops still to issue,
// and returns how many ops the call covers (1, or a batch's size); call
// makes the store call, the only part the driver times. A call that
// returns kvstore.ErrNotFound is a miss, not a failure.
type op struct {
	prep func(i, left int) int
	call func() error
}

// drive is the one op loop under every runner. It splits total ops over
// threads goroutines — goroutine 0 also takes the remainder — and builds
// goroutine g's op with newOp(g) before the clock starts. Each call's
// latency goes into one histogram, and into tl when it is not nil. It
// returns the run, the calls that missed, and the first error.
func drive(total, threads int, tl *histogram.Timeline, newOp func(g int) op) (RunResult, int, error) {
	ops := make([]op, max(threads, 1))
	for g := range ops {
		ops[g] = newOp(g)
	}
	h := histogram.New()
	var (
		wg       sync.WaitGroup
		misses   atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	per := total / len(ops)
	start := time.Now()
	for g, o := range ops {
		n := per
		if g == 0 {
			n += total - per*len(ops)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; {
				m := o.prep(i, n-i)
				t0 := time.Now()
				err := o.call()
				d := time.Since(t0)
				h.Record(d)
				if tl != nil {
					tl.Record(d)
				}
				if errors.Is(err, kvstore.ErrNotFound) {
					misses.Add(1)
				} else if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("goroutine %d: %w", g, err)
					}
					errMu.Unlock()
					return
				}
				i += m
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return RunResult{}, int(misses.Load()), firstErr
	}
	return finishRun(int64(total), time.Since(start), h, tl), int(misses.Load()), nil
}

func finishRun(ops int64, dur time.Duration, h *histogram.Histogram, tl *histogram.Timeline) RunResult {
	r := RunResult{Ops: ops, Duration: dur, Latency: h.Snapshot(), Timeline: tl}
	if dur > 0 {
		r.KIOPS = float64(ops) / dur.Seconds() / 1000
	}
	return r
}

// FillRandom writes n entries with keys drawn by dist from [0, keySpace)
// — db_bench's fillrandom — from threads goroutines. Goroutine g draws
// from its own chooser seeded seed + g·7919, so one uniform goroutine
// draws exactly rand.New(rand.NewSource(seed)).Int63() % keySpace. With
// batch above 1 each goroutine groups its ops into client-side batches
// through kvstore.BatchWriter, when the store has it, and the histogram
// holds one latency per batch.
func FillRandom(s kvstore.Store, n int, keySpace uint64, valueSize int, seed int64, threads, batch int, dist KeyDist) (RunResult, error) {
	bw, ok := s.(kvstore.BatchWriter)
	if !ok {
		batch = 1
	}
	r, _, err := drive(n, threads, nil, func(g int) op {
		choose := dist.chooser(keySpace, seed+int64(g)*7919)
		pool := newValuePool(g+1, valueSize, 64)
		if batch <= 1 {
			var k, v []byte
			return op{
				prep: func(int, int) int { k, v = dbKey(choose.Choose(keySpace)), pool.value(); return 1 },
				call: func() error { return s.Put(k, v) },
			}
		}
		var b []kvstore.BatchOp
		return op{
			prep: func(_, left int) int {
				b = make([]kvstore.BatchOp, min(batch, left))
				for j := range b {
					b[j] = kvstore.BatchOp{Key: dbKey(choose.Choose(keySpace)), Value: pool.value()}
				}
				return len(b)
			},
			call: func() error { return bw.WriteBatch(b) },
		}
	})
	return r, err
}

// FillSeq writes n entries with ascending keys — db_bench's fillseq.
func FillSeq(s kvstore.Store, n int, valueSize int) (RunResult, error) {
	return fillSeq(s, n, valueSize, dbKey)
}

// YCSBLoad inserts records user0..user(n-1) with the given value size —
// the YCSB load phase the paper runs before workloads A–F.
func YCSBLoad(s kvstore.Store, records uint64, valueSize int) (RunResult, error) {
	return fillSeq(s, int(records), valueSize, ycsb.Key)
}

// fillSeq puts key(0) .. key(n-1) from one goroutine.
func fillSeq(s kvstore.Store, n, valueSize int, key func(uint64) []byte) (RunResult, error) {
	r, _, err := drive(n, 1, nil, func(int) op {
		pool := newValuePool(1, valueSize, 64)
		var k, v []byte
		return op{
			prep: func(i, _ int) int { k, v = key(uint64(i)), pool.value(); return 1 },
			call: func() error { return s.Put(k, v) },
		}
	})
	return r, err
}

// ReadRandom issues n point lookups over [0, keySpace) — db_bench's
// readrandom — from threads goroutines drawing keys as FillRandom's
// uniform ones do. Misses (fillrandom need not touch every key) are
// tolerated and counted.
func ReadRandom(s kvstore.Store, n int, keySpace uint64, seed int64, threads int) (RunResult, int, error) {
	return drive(n, threads, nil, func(g int) op {
		choose := ycsb.NewUniformChooser(seed + int64(g)*7919)
		var k []byte
		return op{
			prep: func(int, int) int { k = dbKey(choose.Choose(keySpace)); return 1 },
			call: func() error { _, err := s.Get(k); return err },
		}
	})
}

// ReadSeq scans n entries in key order — db_bench's readseq.
func ReadSeq(s kvstore.Store, n int) (RunResult, error) {
	h := histogram.New()
	start := time.Now()
	count := 0
	t0 := time.Now()
	err := s.Scan(nil, n, func(k, v []byte) bool {
		h.Record(time.Since(t0))
		count++
		t0 = time.Now()
		return true
	})
	if err != nil {
		return RunResult{}, err
	}
	return finishRun(int64(count), time.Since(start), h, nil), nil
}

// YCSBRun executes ops operations of the named workload (A–F, plus the
// multi-get mix M) against a store pre-loaded with records entries, drawn
// from ycsb.NewGenerator(workload, records, seed+1). Workload M's
// multi-reads go through kvstore.MultiGetter when the store provides it
// and fall back to sequential Gets otherwise.
func YCSBRun(s kvstore.Store, letter string, ops int, records uint64, valueSize int, seed int64, tl *histogram.Timeline) (RunResult, error) {
	w, err := ycsb.StandardWorkload(letter, records, seed)
	if err != nil {
		return RunResult{}, err
	}
	r, _, err := drive(ops, 1, tl, func(int) op {
		gen := ycsb.NewGenerator(w, records, seed+1)
		pool := newValuePool(1, valueSize, 64)
		mg, _ := s.(kvstore.MultiGetter)
		var (
			o    ycsb.Op
			k, v []byte
			keys [][]byte
		)
		return op{
			prep: func(int, int) int {
				o = gen.Next()
				k, v = ycsb.Key(o.KeyIdx), pool.value()
				keys = make([][]byte, len(o.KeyIdxs))
				for j, idx := range o.KeyIdxs {
					keys[j] = ycsb.Key(idx)
				}
				return 1
			},
			call: func() error {
				switch o.Kind {
				case ycsb.OpRead:
					_, err := s.Get(k)
					return err
				case ycsb.OpUpdate, ycsb.OpInsert:
					return s.Put(k, v)
				case ycsb.OpScan:
					return s.Scan(k, o.ScanLen, func(k, v []byte) bool { return true })
				case ycsb.OpReadModifyWrite:
					if _, err := s.Get(k); ignoreMiss(err) != nil {
						return err
					}
					return s.Put(k, v)
				case ycsb.OpMultiRead:
					if mg == nil {
						for _, k := range keys {
							if _, err := s.Get(k); ignoreMiss(err) != nil {
								return err
							}
						}
						return nil
					}
					_, errs := mg.GetMulti(keys)
					for _, err := range errs {
						if ignoreMiss(err) != nil {
							return err
						}
					}
				}
				return nil
			},
		}
	})
	return r, err
}

// ignoreMiss is err unless err is kvstore.ErrNotFound.
func ignoreMiss(err error) error {
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil
	}
	return err
}
