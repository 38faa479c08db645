package memtable

import (
	"fmt"
	"testing"

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
