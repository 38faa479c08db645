package vaddr

import (
	"sync"
	"testing"
	"unsafe"
)

func TestAlignedChunkBase(t *testing.T) {
	for size := 4 << 10; size <= 1<<20; size = (size*5/4 + 7) &^ 7 {
		for _, n := range []int{size, size + 8, size - 8} {
			c := alignedChunk(n)
			if len(c) != n || cap(c) != n {
				t.Fatalf("alignedChunk(%d): len %d cap %d", n, len(c), cap(c))
			}
			if p := uintptr(unsafe.Pointer(&c[0])); p&7 != 0 {
				t.Fatalf("alignedChunk(%d) at %#x", n, p)
			}
		}
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestShortGrainLayout walks a region whose chunks are 64 KiB apart but
// backed by 8 KiB: objects pad to the next stride at the backing end, an
// object larger than the grain opens a chunk of its own size, and the
// holes between backing and stride resolve nowhere.
func TestShortGrainLayout(t *testing.T) {
	const stride, grain = 64 << 10, 8 << 10
	s := NewSpace()
	s.NewRegion(4096, nil) // region 0 reserves its first word; keep it out of the way
	r := s.NewRegionGrain(stride, grain, nil)
	if r.ChunkSize() != stride || r.Grain() != grain {
		t.Fatalf("stride %d grain %d", r.ChunkSize(), r.Grain())
	}
	alloc := func(n int, wantOff int64) Addr {
		t.Helper()
		a, err := r.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if a.Offset() != wantOff {
			t.Fatalf("Alloc(%d) at %#x, want %#x", n, a.Offset(), wantOff)
		}
		r.Bytes(a, n)[n-1] = 0xAB // the whole object is backed
		return a
	}
	check := func(size, used, footprint int64) {
		t.Helper()
		if r.Size() != size || r.Used() != used || r.Footprint() != footprint {
			t.Fatalf("size %d used %d footprint %d, want %d %d %d",
				r.Size(), r.Used(), r.Footprint(), size, used, footprint)
		}
	}

	alloc(6<<10, 0)
	alloc(2<<10, 6<<10) // ends exactly at the backing end
	check(grain, grain, grain)
	alloc(8, stride) // at the grain boundary: pads to the next stride
	check(stride+8, grain+8, 2*grain)
	alloc(20<<10, 2*stride) // larger than the grain: backed by its own size
	check(2*stride+20<<10, 2*grain+20<<10, 2*grain+20<<10)
	alloc(8, 3*stride) // the big object's chunk is full
	check(3*stride+8, 2*grain+20<<10+8, 3*grain+20<<10)

	for _, c := range []struct{ off, end int64 }{
		{0, grain}, {grain - 8, grain}, {stride + 8, stride + grain},
		{2 * stride, 2*stride + 20<<10}, {4 * stride, 4 * stride},
	} {
		if got := r.ChunkEnd(c.off); got != c.end {
			t.Errorf("ChunkEnd(%#x) = %#x, want %#x", c.off, got, c.end)
		}
	}
	if got := r.ChunkEnd(grain + 64); got > grain+64 {
		t.Errorf("ChunkEnd inside a hole = %#x, not below the offset", got)
	}

	hole := r.Base().Add(grain)
	mustPanic(t, "Bytes inside a hole", func() { r.Bytes(hole, 8) })
	mustPanic(t, "Bytes across the backing end", func() { r.Bytes(hole.Add(-8), 16) })
	mustPanic(t, "Span inside a hole", func() { r.Span(hole) })
	mustPanic(t, "Load64 inside a hole", func() { r.Load64(r.Base().Add(stride + grain + 8)) })
	if _, err := r.Alloc(stride + 8); err == nil {
		t.Fatal("Alloc larger than the stride succeeded")
	}

	// An empty range at the very end of a backed chunk resolves.
	if b := r.Span(hole.Add(-8)).Bytes(8, 0); len(b) != 0 {
		t.Fatalf("empty range at the backing end has %d bytes", len(b))
	}
}

// TestCloneOfSpilledRegion: a clone of a short-grain region copies and
// charges exactly Used — holes stay holes — and its addresses rebase.
func TestCloneOfSpilledRegion(t *testing.T) {
	const stride, grain = 16 << 10, 4 << 10
	s := NewSpace()
	s.NewRegion(4096, nil)
	src := s.NewRegionGrain(stride, grain, nil)
	var addrs []Addr
	for i := 0; i < 60; i++ {
		n := 200 + 8*(i%7)
		if i%20 == 19 {
			n = 6 << 10 // larger than the grain
		}
		a, err := src.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		src.PutUint64(a, uint64(i))
		if i > 0 {
			src.PutUint64(a.Add(8), uint64(addrs[i-1]))
		}
		addrs = append(addrs, a)
	}
	if src.Used() >= src.Size() || src.Size() < 3*stride {
		t.Fatalf("source did not spill with holes: used %d size %d", src.Used(), src.Size())
	}
	m := &countingMeter{}
	dst := s.Clone(src, m)
	if m.writes != 1 || int64(m.writeBytes) != src.Used() {
		t.Fatalf("clone charged %d writes / %d B, want one of %d B", m.writes, m.writeBytes, src.Used())
	}
	if dst.Footprint() != src.Used() || dst.Used() != src.Used() || dst.Size() != src.Size() {
		t.Fatalf("clone footprint %d used %d size %d; source used %d size %d",
			dst.Footprint(), dst.Used(), dst.Size(), src.Used(), src.Size())
	}
	for i, a := range addrs {
		ra := Rebase(a, src, dst)
		if v := dst.Uint64(ra); v != uint64(i) {
			t.Fatalf("clone[%d] = %d", i, v)
		}
		if i > 0 {
			if prev := Rebase(Addr(dst.Uint64(ra.Add(8))), src, dst); prev.Offset() != addrs[i-1].Offset() || prev.Region() != dst.Index() {
				t.Fatalf("clone[%d] links to %v", i, prev)
			}
		}
	}
}

// TestRegionTableConcurrent creates, resolves and releases regions from
// several goroutines while others list and look them up, across many
// doublings of the table.
func TestRegionTableConcurrent(t *testing.T) {
	s := NewSpace()
	kept := make([]*Region, 0, 64)
	for i := 0; i < 64; i++ {
		kept = append(kept, s.NewRegion(4096, nil))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r := s.Region(i % 4096); r != nil && r.Index() != i%4096 {
					t.Errorf("slot %d holds region %d", i%4096, r.Index())
					return
				}
				for _, r := range s.Regions() {
					if r == nil {
						t.Error("Regions listed an empty slot")
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	var seen sync.Map
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r := s.NewRegion(4096, nil)
				if _, dup := seen.LoadOrStore(r.Index(), true); dup {
					t.Errorf("index %d handed out twice", r.Index())
				}
				if s.Region(r.Index()) != r {
					t.Errorf("region %d does not resolve", r.Index())
				}
				if i%3 != 0 {
					s.Release(r)
					if s.Region(r.Index()) != nil {
						t.Errorf("released region %d still resolves", r.Index())
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, r := range kept {
		if s.Region(r.Index()) != r {
			t.Fatalf("region %d lost across table growth", r.Index())
		}
	}
	if n := len(s.Regions()); n != 64+4*167 {
		t.Fatalf("%d live regions, want %d", n, 64+4*167)
	}
}
