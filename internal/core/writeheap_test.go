package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestPutDoesNotAllocate pins the lone writer's Put at zero heap
// allocations while the memtable does not rotate: the one-op request stays
// on the stack all the way through the WAL append and the memtable insert.
func TestPutDoesNotAllocate(t *testing.T) {
	db := mustOpen(t, Options{MemTableSize: 1 << 20})
	defer db.Close()
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%012d", i))
	}
	value := make([]byte, 128)
	mem := db.current.Load().mem
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if err := db.Put(keys[i%len(keys)], value); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if db.current.Load().mem != mem {
		t.Fatal("the memtable rotated during the run")
	}
	if allocs != 0 {
		t.Fatalf("Put allocates %.1f times", allocs)
	}
}

// TestWriteHeapPerPut gates the Go heap the write path allocates per Put,
// background flushes and merges included: default Options, 30 000 Puts of
// 128-byte values over 10 000 keys in a fixed random order, then FlushAll.
//
// Before memtable arenas and their logs were backed by the memtable's
// grain instead of whole 256 KiB chunks, this read 1 874.2–1 874.5 B per
// Put over three runs; after, 757.7–759.0 B. Since zero-copy merges OR
// the drained filter into the surviving one in place instead of cloning
// a 32 KiB filter per merge, it reads 676.9–677.8 B (amd64, Go 1.24,
// 2 vCPUs; 677–680 B at GOMAXPROCS 1 to 8 and under the race detector).
// The bound is 678 B plus 10 %.
func TestWriteHeapPerPut(t *testing.T) {
	const puts, distinct, bound = 30_000, 10_000, 678 * 1.1
	perPut := writeHeapPerPut(t, puts, distinct)
	t.Logf("%.1f B of Go heap per Put", perPut)
	if perPut > bound {
		t.Fatalf("write path allocates %.1f B per Put, bound %.0f B", perPut, float64(bound))
	}
}

// writeHeapPerPut opens a default store, writes puts 128-byte values over
// distinct keys, flushes everything and returns the Go heap bytes
// allocated per Put from the first Put to the end of FlushAll.
func writeHeapPerPut(t *testing.T, puts, distinct int) float64 {
	db := mustOpen(t, Options{})
	defer db.Close()
	keys := make([][]byte, distinct)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%012d", i))
	}
	order := rand.New(rand.NewSource(1)).Perm(puts)
	value := make([]byte, 128)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, i := range order {
		if err := db.Put(keys[i%distinct], value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(puts)
}
