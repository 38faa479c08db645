package memtable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"miodb/internal/bloom"
	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

func newMT(t testing.TB, capacity int64) *MemTable {
	t.Helper()
	dev := nvm.NewDevice(vaddr.NewSpace(), nvm.DRAMProfile())
	mt, err := New(dev, capacity, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func TestAddGetCount(t *testing.T) {
	mt := newMT(t, 1<<20)
	if !mt.Empty() {
		t.Error("fresh memtable not empty")
	}
	for i := 0; i < 100; i++ {
		if err := mt.Add([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	if mt.Count() != 100 || mt.Empty() {
		t.Errorf("Count = %d", mt.Count())
	}
	v, seq, kind, ok := mt.Get([]byte("k042"))
	if !ok || string(v) != "v42" || seq != 43 || kind != keys.KindSet {
		t.Fatalf("Get = %q seq=%d", v, seq)
	}
	if mt.UserBytes() == 0 {
		t.Error("UserBytes = 0")
	}
}

func TestFullTriggersAtCapacity(t *testing.T) {
	mt := newMT(t, 4<<10)
	if mt.Full() {
		t.Error("empty memtable full")
	}
	i := 0
	for !mt.Full() {
		if err := mt.Add([]byte(fmt.Sprintf("key-%06d", i)), make([]byte, 100), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
		i++
		if i > 10000 {
			t.Fatal("memtable never filled")
		}
	}
	if mt.ApproximateBytes() < 4<<10 {
		t.Errorf("ApproximateBytes = %d below capacity at Full", mt.ApproximateBytes())
	}
}

func TestIteratorOrder(t *testing.T) {
	mt := newMT(t, 1<<20)
	for _, k := range []string{"m", "c", "x", "a"} {
		mt.Add([]byte(k), []byte("v"), 1+uint64(len(k)), keys.KindSet)
	}
	it := mt.NewIterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if fmt.Sprint(got) != "[a c m x]" {
		t.Errorf("order = %v", got)
	}
}

func TestReleaseKeepsReaders(t *testing.T) {
	mt := newMT(t, 1<<20)
	mt.Add([]byte("k"), []byte("v"), 1, keys.KindSet)
	mt.Release()
	// A reader holding the memtable keeps a valid view (GC-deferred).
	if v, _, _, ok := mt.Get([]byte("k")); !ok || string(v) != "v" {
		t.Error("reader broken after Release")
	}
	// But the region is detached from the space.
	if !mt.Region().Released() {
		t.Error("region not detached")
	}
}

func TestGrainFollowsCapacity(t *testing.T) {
	for _, c := range []struct {
		capacity    int64
		chunk, want int
	}{
		{64 << 10, 256 << 10, 72 << 10},
		{8 << 10, 32 << 10, 16 << 10},
		{100 << 10, 128 << 10, 120 << 10},
		{200 << 10, 256 << 10, 232 << 10},
		{240 << 10, 256 << 10, 256 << 10}, // capped at the stride
		{1 << 40, 256 << 10, 256 << 10},
	} {
		if got := grain(c.capacity, c.chunk); got != c.want {
			t.Errorf("grain(%d, %d) = %d, want %d", c.capacity, c.chunk, got, c.want)
		}
	}
	if g := newMT(t, 16<<10).Region().Grain(); g != 24<<10 {
		t.Errorf("arena grain %d", g)
	}
}

// TestSpilledArenaChargesWhatItReports: a memtable filled far past its
// capacity spills into further short chunks, and the bytes it reports —
// what the flush path gates, accounts and admits by — are exactly what
// the one-piece flush's Clone copies and charges.
func TestSpilledArenaChargesWhatItReports(t *testing.T) {
	space := vaddr.NewSpace()
	dram := nvm.NewDevice(space, nvm.DRAMProfile())
	nv := nvm.NewDevice(space, nvm.NVMProfile())
	mt, err := New(dram, 8<<10, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := mt.Add([]byte(fmt.Sprintf("key-%06d", i)), make([]byte, 100+i%50), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	r := mt.Region()
	if r.Size() <= 2*int64(r.ChunkSize()) || mt.ApproximateBytes() >= r.Size() {
		t.Fatalf("arena did not spill: size %d, reports %d", r.Size(), mt.ApproximateBytes())
	}
	before := nv.Counters().BytesWritten
	clone := nv.Clone(r)
	if charged := nv.Counters().BytesWritten - before; charged != mt.ApproximateBytes() {
		t.Fatalf("Clone charged %d B, memtable reports %d B", charged, mt.ApproximateBytes())
	}
	if clone.Footprint() != mt.ApproximateBytes() {
		t.Fatalf("clone commits %d B, memtable reports %d B", clone.Footprint(), mt.ApproximateBytes())
	}
}

// newFilteredMT is newMT with a bloom filter of the store defaults' shape
// scaled down, so that its words collide often under the race detector.
func newFilteredMT(t testing.TB, capacity int64, expectedKeys int) *MemTable {
	t.Helper()
	dev := nvm.NewDevice(vaddr.NewSpace(), nvm.DRAMProfile())
	mt, err := NewFiltered(dev, capacity, 64<<10, bloom.New(expectedKeys, 16))
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// A filter miss answers "absent" without a search: no DRAM read at all.
// A key that was added is found through the filter, tombstones included.
func TestFilterSkipsAbsentKeys(t *testing.T) {
	mt := newFilteredMT(t, 1<<20, 1024)
	for i := 0; i < 200; i++ {
		kind := keys.KindSet
		if i%5 == 0 {
			kind = keys.KindDelete
		}
		if err := mt.Add([]byte(fmt.Sprintf("k%04d", i)), []byte("v"), uint64(i+1), kind); err != nil {
			t.Fatal(err)
		}
	}
	if mt.Filter() == nil || mt.Filter().Keys() != 200 {
		t.Fatalf("filter = %v, want one of 200 keys", mt.Filter())
	}
	for i := 0; i < 200; i++ {
		_, _, kind, ok := mt.Get([]byte(fmt.Sprintf("k%04d", i)))
		if !ok || (kind == keys.KindDelete) != (i%5 == 0) {
			t.Fatalf("Get(k%04d) = ok %v kind %v", i, ok, kind)
		}
	}
	dev := mt.dev
	skipped := 0
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("absent-%04d", i))
		before := dev.Counters().Reads
		if _, _, _, ok := mt.Get(key); ok {
			t.Fatalf("Get(%s) found an absent key", key)
		}
		if !mt.Filter().MayContain(key) {
			skipped++
			if got := dev.Counters().Reads - before; got != 0 {
				t.Fatalf("Get(%s) ruled out by the filter still read DRAM %d times", key, got)
			}
		}
	}
	if skipped < 190 {
		t.Fatalf("filter ruled out %d of 200 absent keys", skipped)
	}
	if newMT(t, 4<<10).Filter() != nil {
		t.Fatal("New made a filtered memtable")
	}
}

// TestConcurrentProbesNeverMissAckedKeys runs the one writer against
// readers that probe keys the writer has acked (Add returned) and keys it
// is about to add: an acked key — set or tombstone — is never reported
// absent, because its filter bits are stored before its node is
// published. Run it under -race: the filter words are written while they
// are read.
func TestConcurrentProbesNeverMissAckedKeys(t *testing.T) {
	const n = 4000
	mt := newFilteredMT(t, 8<<20, 256) // small: most words shared by many keys
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i*7919%n)) }
	var acked atomic.Int64
	acked.Store(-1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := uint64(r)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				a := int(acked.Load())
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				// Probe an acked key, then one at or just past the writer.
				if a >= 0 {
					i := int(rnd % uint64(a+1))
					_, seq, kind, ok := mt.GetBounded(key(i), bloom.Hash(key(i)), keys.MaxSeq)
					if !ok || seq != uint64(i+1) || (kind == keys.KindDelete) != (i%3 == 0) {
						errs <- fmt.Errorf("acked key %d: ok %v seq %d kind %v", i, ok, seq, kind)
						return
					}
				}
				if j := a + 1 + int(rnd%3); j < n {
					mt.Get(key(j))
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		kind := keys.KindSet
		if i%3 == 0 {
			kind = keys.KindDelete
		}
		if err := mt.Add(key(i), []byte("value"), uint64(i+1), kind); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(i))
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkGet is a memtable point read at the benchmark's memtable size
// (384 entries of 16-byte keys and 128-byte values): a hit, and a miss the
// filter rules out, with and without a filter.
func BenchmarkGet(b *testing.B) {
	const n = 384
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }
	value := make([]byte, 128)
	for _, filtered := range []bool{false, true} {
		mt := newMT(b, 1<<20)
		if filtered {
			mt = newFilteredMT(b, 1<<20, 16384)
		}
		for i := 0; i < n; i++ {
			if err := mt.Add(key(i*7919%n), value, uint64(i+1), keys.KindSet); err != nil {
				b.Fatal(err)
			}
		}
		hits, misses := make([][]byte, 1024), make([][]byte, 1024)
		for i := range hits {
			hits[i], misses[i] = key(i*104729%n), key(n+i)
		}
		for _, tc := range []struct {
			name  string
			probe [][]byte
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(fmt.Sprintf("filter=%v/%s", filtered, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, _, _, benchOK = mt.Get(tc.probe[i%len(tc.probe)])
				}
			})
		}
	}
}

var benchOK bool
