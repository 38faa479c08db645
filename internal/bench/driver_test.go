package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"miodb/internal/kvstore"
	"miodb/internal/stats"
	"miodb/internal/ycsb"
)

// nopStore is a Store whose every call does nothing; Gets miss.
type nopStore struct{}

func (nopStore) Put(key, value []byte) error                                   { return nil }
func (nopStore) Get(key []byte) ([]byte, error)                                { return nil, kvstore.ErrNotFound }
func (nopStore) Delete(key []byte) error                                       { return nil }
func (nopStore) Flush() error                                                  { return nil }
func (nopStore) Stats() stats.Snapshot                                         { return stats.Snapshot{} }
func (nopStore) Close() error                                                  { return nil }
func (nopStore) ResetCounters()                                                {}
func (nopStore) Scan(start []byte, limit int, fn func(k, v []byte) bool) error { return nil }

// recorder is a Store that logs every call it gets, in the order the
// calls arrive, as "op key" lines; its Puts fail with putErr.
type recorder struct {
	nopStore
	mu     sync.Mutex
	calls  []string
	putErr error
	closed bool
}

func (r *recorder) log(format string, args ...any) {
	r.mu.Lock()
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *recorder) Put(key, value []byte) error {
	r.log("put %s", key)
	return r.putErr
}

func (r *recorder) Get(key []byte) ([]byte, error) {
	r.log("get %s", key)
	return nopStore{}.Get(key)
}

func (r *recorder) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	r.log("scan %s %d", start, limit)
	return nil
}

func (r *recorder) GetMulti(keys [][]byte) ([][]byte, []error) {
	r.log("multi %s", keys)
	return make([][]byte, len(keys)), make([]error, len(keys))
}

func (r *recorder) Close() error {
	r.closed = true
	return nil
}

// wantKeys is the reference key stream: n draws of
// rand.New(rand.NewSource(seed)).Int63() % keySpace, as "op key" lines.
func wantKeys(op string, n int, keySpace uint64, seed int64) []string {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %s", op, dbKey(uint64(rnd.Int63())%keySpace))
	}
	return out
}

// TestDriverKeyStreamsOneThread: with one goroutine, fillrandom puts and
// readrandom gets the keys of the plain seeded PRNG, one call per op.
func TestDriverKeyStreamsOneThread(t *testing.T) {
	const n, keySpace = 500, 300
	r := &recorder{}
	if _, err := FillRandom(r, n, keySpace, 64, 7, 1, 1, Uniform); err != nil {
		t.Fatal(err)
	}
	if want := wantKeys("put", n, keySpace, 7); !slices.Equal(r.calls, want) {
		t.Fatalf("fill keys differ from the seeded PRNG's:\n got %v\nwant %v", r.calls[:min(5, len(r.calls))], want[:5])
	}
	r.calls = nil
	res, misses, err := ReadRandom(r, n, keySpace, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantKeys("get", n, keySpace, 8); !slices.Equal(r.calls, want) {
		t.Fatalf("read keys differ from the seeded PRNG's:\n got %v\nwant %v", r.calls[:min(5, len(r.calls))], want[:5])
	}
	if misses != n || res.Ops != n || res.Latency.Count != n {
		t.Fatalf("misses %d, ops %d, latencies %d; want %d each", misses, res.Ops, res.Latency.Count, n)
	}
}

// TestDriverThreadSplitAndSeeds: with three goroutines and a total three does
// not divide, goroutine 0 issues the remainder too, and goroutine g's
// calls, in the order it made them, are the key stream seeded
// seed + g·7919. The keyspace is wide enough that no two streams share a
// key, so each call belongs to exactly one stream.
func TestDriverThreadSplitAndSeeds(t *testing.T) {
	const total, threads, seed = 1001, 3, 11
	const keySpace = 1 << 62
	for _, c := range []struct {
		op    string
		drive func(s Store) error
	}{
		{"put", func(s Store) error {
			_, err := FillRandom(s, total, keySpace, 32, seed, threads, 1, Uniform)
			return err
		}},
		{"get", func(s Store) error {
			_, _, err := ReadRandom(s, total, keySpace, seed, threads)
			return err
		}},
	} {
		r := &recorder{}
		if err := c.drive(r); err != nil {
			t.Fatal(err)
		}
		if len(r.calls) != total {
			t.Fatalf("%s: %d calls, want %d", c.op, len(r.calls), total)
		}
		owner := map[string]int{}
		want := make([][]string, threads)
		for g := range want {
			n := total / threads
			if g == 0 {
				n += total % threads
			}
			want[g] = wantKeys(c.op, n, keySpace, seed+int64(g)*7919)
			for _, call := range want[g] {
				owner[call] = g
			}
		}
		got := make([][]string, threads)
		for _, call := range r.calls {
			g, ok := owner[call]
			if !ok {
				t.Fatalf("%s: call %q is in no goroutine's stream", c.op, call)
			}
			got[g] = append(got[g], call)
		}
		for g := range want {
			if !slices.Equal(got[g], want[g]) {
				t.Fatalf("%s: goroutine %d made %d calls out of stream order, want %d in order", c.op, g, len(got[g]), len(want[g]))
			}
		}
	}
}

// TestDriverYCSBRunFollowsGenerator: YCSBRun makes exactly the store calls the
// workload's generator, seeded seed+1, draws — multi-reads as one
// GetMulti on a store that has it, a read-modify-write as a Get then a
// Put.
func TestDriverYCSBRunFollowsGenerator(t *testing.T) {
	const ops, records, seed = 400, 1000, 5
	for _, letter := range []string{"A", "B", "C", "D", "E", "F", "M"} {
		w, err := ycsb.StandardWorkload(letter, records, seed)
		if err != nil {
			t.Fatal(err)
		}
		gen := ycsb.NewGenerator(w, records, seed+1)
		var want []string
		for range ops {
			o := gen.Next()
			k := ycsb.Key(o.KeyIdx)
			switch o.Kind {
			case ycsb.OpRead:
				want = append(want, fmt.Sprintf("get %s", k))
			case ycsb.OpUpdate, ycsb.OpInsert:
				want = append(want, fmt.Sprintf("put %s", k))
			case ycsb.OpScan:
				want = append(want, fmt.Sprintf("scan %s %d", k, o.ScanLen))
			case ycsb.OpReadModifyWrite:
				want = append(want, fmt.Sprintf("get %s", k), fmt.Sprintf("put %s", k))
			case ycsb.OpMultiRead:
				keys := make([][]byte, len(o.KeyIdxs))
				for j, idx := range o.KeyIdxs {
					keys[j] = ycsb.Key(idx)
				}
				want = append(want, fmt.Sprintf("multi %s", keys))
			}
		}
		r := &recorder{}
		res, err := YCSBRun(r, letter, ops, records, 64, seed, nil)
		if err != nil {
			t.Fatalf("workload %s: %v", letter, err)
		}
		if res.Ops != ops || res.Latency.Count != ops {
			t.Fatalf("workload %s: %d ops, %d latencies; want %d", letter, res.Ops, res.Latency.Count, ops)
		}
		if !slices.Equal(r.calls, want) {
			t.Fatalf("workload %s: calls differ from the generator's ops", letter)
		}
	}
}

// TestFillAllocatesLessThanAValuePerOp: a fill hands out pooled values,
// so against a store that keeps nothing a 4 KB fill allocates, per op,
// less than one value — the pool's setup spread over the ops plus the key.
func TestFillAllocatesLessThanAValuePerOp(t *testing.T) {
	const n, valueSize = 4000, 4 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := FillRandom(nopStore{}, n, n, valueSize, 1, 1, 1, Uniform); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / n; perOp >= valueSize {
		t.Fatalf("fill allocated %d B per op, at least one %d B value", perOp, valueSize)
	}
}

// TestDriverPassClosesStoreOnError: the experiments' pass closes its store
// when the fill fails, and returns an open error as it is.
func TestDriverPassClosesStoreOnError(t *testing.T) {
	broken := errors.New("put refused")
	r := &recorder{putErr: broken}
	_, err := pass{n: 10, valueSize: 8, reads: 10, threads: 1, seed: 1}.run(r, nil)
	if !errors.Is(err, broken) {
		t.Fatalf("pass over a failing Put: %v, want %v", err, broken)
	}
	if !r.closed {
		t.Fatal("pass left the store open after its fill failed")
	}
	openErr := errors.New("no store")
	if _, err := (pass{n: 10}).run(nil, openErr); err != openErr {
		t.Fatalf("pass after a failed open: %v, want %v", err, openErr)
	}
}
