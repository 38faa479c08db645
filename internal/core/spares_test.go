package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"miodb/internal/memtable"
)

// reused reads the free lists' counters.
func (db *DB) reused() (chunks, filters int64) {
	db.spares.mu.Lock()
	defer db.spares.mu.Unlock()
	return db.spares.chunksReused, db.spares.filtersReused
}

// TestReuseNeverReplaysStaleWAL rotates a store through more than three
// times the free lists' bound, first with memtables of many short entries
// and then with memtables of two long ones, and crashes it. Every short
// record is 64 bytes, so records lie on a 64-byte grid in each log, and a
// reused log chunk holds that grid where its last life wrote. A long
// memtable's first record ends on the grid and its second does not fit
// the rest of the log's first chunk, so the log leaves a gap there and
// goes on at the next stride: replay reads the gap, and an uncleared
// chunk would hand it a stale record with a valid CRC, an old version the
// memtable would then serve. Recovery must return exactly the acked state.
func TestReuseNeverReplaysStaleWAL(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}

	// 9-byte keys and 34-byte values frame 64-byte records (8 header, 13
	// fixed payload).
	for round := 0; round < 10; round++ {
		for i := 0; i < 500; i++ {
			put(fmt.Sprintf("a-%07d", i), fmt.Sprintf("%034d", round))
		}
	}
	db.WaitIdle() // the flushed logs' chunks reach the free lists

	// 7-byte keys: the first record frames to 3 072 bytes (a grid point),
	// the second to 14 028, past the 16 KiB grain.
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("b-%05d", i), string(bytes.Repeat([]byte{'x' + byte(i%2)}, 3044)))
		put(fmt.Sprintf("c-%05d", i), string(bytes.Repeat([]byte{'y'}, 14000)))
	}
	if r := db.Stats().Rotations; r < 3*maxSpares {
		t.Fatalf("%d rotations, want at least %d", r, 3*maxSpares)
	}
	if chunks, _ := db.reused(); chunks == 0 {
		t.Fatal("no memtable reused a chunk")
	}
	log := db.current.Load().mem.log.Region()
	if log.Size() <= int64(log.ChunkSize()) {
		t.Fatalf("the active log did not go on at the next stride (size %d)", log.Size())
	}
	db.WaitIdle()
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}

	re, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		if got, err := re.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("after recovery Get(%s) = %.40q, %v; want %.40q", k, got, err, v)
		}
	}
	n := 0
	if err := re.Scan(nil, 0, func(k, v []byte) bool {
		if golden[string(k)] != string(v) {
			t.Errorf("after recovery Scan yields %s = %.40q", k, v)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(golden) {
		t.Fatalf("after recovery Scan yields %d keys, want %d", n, len(golden))
	}
}

// TestReuseDropsOldShape changes the memtable target mid-run, once the
// free lists hold chunks of the old grain: from then on every new
// memtable's arena and log are backed by chunks of the new grain, and
// every filter by the store's one filter size, while chunks released at
// the new grain are reused.
func TestReuseDropsOldShape(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	defer db.Close()
	value := bytes.Repeat([]byte{'v'}, 100)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	oldGrain := memtable.Grain(opts.MemTableSize, opts.ChunkSize)
	db.spares.mu.Lock()
	held := len(db.spares.arenas)
	db.spares.mu.Unlock()
	if held == 0 {
		t.Fatal("no arena chunk reached the free list")
	}

	target := db.SetMemTableTarget(20 << 10)
	grain := memtable.Grain(target, opts.ChunkSize)
	if grain == oldGrain {
		t.Fatalf("target %d keeps the %d B grain", target, grain)
	}
	filterSize := len(db.fp.NewFilter().Encode())
	chunksBefore, _ := db.reused()
	seen := map[*memHandle]bool{db.current.Load().mem: true} // born before the change
	for i := 0; i < 6000; i++ {
		if i == 3000 {
			db.WaitIdle() // chunks of the new grain reach the lists
		}
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), value); err != nil {
			t.Fatal(err)
		}
		h := db.current.Load().mem
		if seen[h] {
			continue
		}
		seen[h] = true
		arena := h.mt.Region()
		if arena.Grain() != grain || arena.ChunkEnd(0) != int64(grain) {
			t.Fatalf("memtable %d: arena grain %d backed by %d B, want %d",
				len(seen), arena.Grain(), arena.ChunkEnd(0), grain)
		}
		if log := h.log.Region(); log.ChunkEnd(0) != int64(grain) {
			t.Fatalf("memtable %d: log backed by %d B, want %d", len(seen), log.ChunkEnd(0), grain)
		}
		if n := len(h.mt.Filter().Encode()); n != filterSize {
			t.Fatalf("memtable %d: filter of %d B, want %d", len(seen), n, filterSize)
		}
	}
	if n := len(seen) - 1; n < 2*maxSpares {
		t.Fatalf("only %d memtables after the change", n)
	}
	if chunks, _ := db.reused(); chunks == chunksBefore {
		t.Fatal("no chunk of the new grain was reused")
	}
}

// TestReuseFilterConcurrentGets reads acked keys beside the writer that
// acks them, with memtables small enough that flushes, zero-copy merges
// and lazy copies run all the time and their freed filters go to new
// memtables. Every key is written once, so it lives in exactly one
// memtable or table and a filter reset while a reader could still probe
// it would show as a miss. Run under -race.
func TestReuseFilterConcurrentGets(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	key := func(i int64) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	value := func(i int64) []byte { return []byte(fmt.Sprintf("value-%08d-%040d", i, i)) }

	var acked atomic.Int64 // keys [0, acked) are written
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); !stop.Load(); i++ {
			if err := db.Put(key(i), value(i)); err != nil {
				errs <- err
				return
			}
			acked.Store(i + 1)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				n := acked.Load()
				if n == 0 {
					continue
				}
				i := rng.Int63n(n)
				if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, value(i)) {
					errs <- fmt.Errorf("Get(%s) of an acked key = %q, %v", key(i), got, err)
					return
				}
			}
		}(int64(r))
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if _, filters := db.reused(); filters >= 3*maxSpares {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, filters := db.reused(); filters == 0 {
		t.Fatal("no memtable reused a filter")
	}
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}
