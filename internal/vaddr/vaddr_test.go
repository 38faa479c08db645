package vaddr

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddrEncoding(t *testing.T) {
	a := Addr(uint64(7)<<offsetBits | 0x1234)
	if a.Region() != 7 {
		t.Errorf("Region() = %d, want 7", a.Region())
	}
	if a.Offset() != 0x1234 {
		t.Errorf("Offset() = %#x, want 0x1234", a.Offset())
	}
	if a.Add(8).Offset() != 0x123c {
		t.Errorf("Add(8).Offset() = %#x", a.Add(8).Offset())
	}
	if !NilAddr.IsNil() || a.IsNil() {
		t.Error("IsNil misbehaves")
	}
	if NilAddr.String() != "nil" {
		t.Errorf("NilAddr.String() = %q", NilAddr.String())
	}
}

func TestAddrRoundTrip(t *testing.T) {
	f := func(region uint32, offset uint64) bool {
		region &= 1<<24 - 1
		offset &= offsetMask
		a := Addr(uint64(region)<<offsetBits | offset)
		return a.Region() == region && a.Offset() == int64(offset)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNilAddrNeverAllocated(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	a, err := r.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.IsNil() {
		t.Fatal("first allocation in region 0 returned the nil address")
	}
}

func TestAllocAlignmentAndChunking(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	var prevEnd int64
	for i, n := range []int{1, 7, 8, 9, 100, 4096, 4000, 200} {
		a, err := r.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if a.Offset()%8 != 0 {
			t.Errorf("alloc %d: offset %#x not 8-aligned", i, a.Offset())
		}
		padded := int64((n + 7) &^ 7)
		start, end := a.Offset(), a.Offset()+padded-1
		if start/4096 != end/4096 {
			t.Errorf("alloc %d of %d bytes straddles chunk: [%#x,%#x]", i, n, start, end)
		}
		if start < prevEnd {
			t.Errorf("alloc %d overlaps previous", i)
		}
		prevEnd = end + 1
		// The full reservation must be addressable.
		b := r.Bytes(a, n)
		if len(b) != n {
			t.Errorf("Bytes len = %d, want %d", len(b), n)
		}
	}
}

func TestAllocTooLarge(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	if _, err := r.Alloc(4097); err == nil {
		t.Error("Alloc larger than chunk should fail")
	}
	if _, err := r.Alloc(0); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := r.Alloc(-5); err == nil {
		t.Error("Alloc(-5) should fail")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	a, _ := r.Alloc(64)
	data := []byte("the quick brown fox jumps over the lazy dog")
	r.Write(a, data)
	got := r.Read(a, len(data))
	if !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestAtomicWordOps(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	a, _ := r.Alloc(8)
	r.Store64(a, 0xdeadbeefcafebabe)
	if v := r.Load64(a); v != 0xdeadbeefcafebabe {
		t.Errorf("Load64 = %#x", v)
	}
}

func TestPutGetUint64(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	a, _ := r.Alloc(8)
	r.PutUint64(a, 123456789)
	if v := r.Uint64(a); v != 123456789 {
		t.Errorf("Uint64 = %d", v)
	}
	// PutUint64 and Store64 must agree on byte layout (little endian).
	r.Store64(a, 0x0102030405060708)
	if v := r.Uint64(a); v != 0x0102030405060708 {
		t.Errorf("mixed atomic/plain word = %#x", v)
	}
}

func TestRegionGrowthConcurrentReads(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	a, _ := r.Alloc(8)
	r.Store64(a, 7)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := r.Load64(a); v != 7 {
					t.Errorf("Load64 = %d during growth", v)
					return
				}
			}
		}()
	}
	// Force many chunk growths while readers run.
	for i := 0; i < 1000; i++ {
		if _, err := r.Alloc(4096); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCloneAndRebase(t *testing.T) {
	s := NewSpace()
	src := s.NewRegion(4096, nil)
	// Fill several chunks with a recognizable pattern and self-pointers.
	addrs := make([]Addr, 50)
	for i := range addrs {
		a, err := src.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		src.PutUint64(a, uint64(i))
		if i > 0 {
			src.PutUint64(a.Add(8), uint64(addrs[i-1])) // pointer to previous
		}
	}
	dst := s.Clone(src, nil)
	if dst.Size() != src.Size() {
		t.Fatalf("clone size %d != src size %d", dst.Size(), src.Size())
	}
	// 50 × 256 B over 4 KiB chunks: three whole chunks and a short tail.
	// The clone commits exactly that, the source a fourth whole chunk.
	if src.Size() <= 3*4096 || dst.Footprint() != src.Size() || src.Footprint() != 4*4096 {
		t.Fatalf("extent %d: clone footprint %d, source footprint %d", src.Size(), dst.Footprint(), src.Footprint())
	}
	for i, a := range addrs {
		ra := Rebase(a, src, dst)
		if ra.Region() != dst.Index() || ra.Offset() != a.Offset() {
			t.Fatalf("Rebase mangles address: %v -> %v", a, ra)
		}
		if v := dst.Uint64(ra); v != uint64(i) {
			t.Errorf("clone[%d] = %d, want %d", i, v, i)
		}
		if i > 0 {
			ptr := Addr(dst.Uint64(ra.Add(8)))
			if ptr != addrs[i-1] {
				t.Errorf("clone kept pre-rebase pointer mangled: %v", ptr)
			}
			if reb := Rebase(ptr, src, dst); reb.Offset() != addrs[i-1].Offset() {
				t.Errorf("rebased pointer wrong offset")
			}
		}
	}
	// Rebase leaves nil and foreign addresses alone.
	if Rebase(NilAddr, src, dst) != NilAddr {
		t.Error("Rebase(nil) != nil")
	}
	other := s.NewRegion(4096, nil)
	oa, _ := other.Alloc(8)
	if Rebase(oa, src, dst) != oa {
		t.Error("Rebase of foreign address changed it")
	}
}

// TestCloneCommitsOnlyItsExtent covers the single-chunk case a memtable
// flush is (an extent well inside one chunk), the empty clone, and the
// property that makes cutting the last chunk safe: a clone is sealed.
func TestCloneCommitsOnlyItsExtent(t *testing.T) {
	s := NewSpace()
	m := &countingMeter{}
	src := s.NewRegion(256<<10, nil)
	var last Addr
	for i := 0; i < 100; i++ {
		a, err := src.Alloc(100 + i) // odd sizes: Alloc rounds each to 8
		if err != nil {
			t.Fatal(err)
		}
		src.PutUint64(a, uint64(i))
		last = a
	}
	dst := s.Clone(src, m)
	if dst.Footprint() != src.Size() || dst.Footprint()%8 != 0 {
		t.Fatalf("clone footprint %d, extent %d", dst.Footprint(), src.Size())
	}
	if src.Footprint() != 256<<10 {
		t.Fatalf("source footprint %d", src.Footprint())
	}
	if m.writes != 1 || int64(m.writeBytes) != src.Size() {
		t.Fatalf("clone charged %d writes / %d B, want one of %d B", m.writes, m.writeBytes, src.Size())
	}
	if v := dst.Uint64(Rebase(last, src, dst)); v != 99 {
		t.Fatalf("last object reads %d through the clone", v)
	}
	dst.Store64(Rebase(last, src, dst), 7) // in-place stores still work
	if _, err := dst.Alloc(8); err == nil {
		t.Fatal("Alloc on a clone succeeded")
	}
	if dst.Size() != src.Size() {
		t.Fatalf("refused Alloc moved the clone's extent to %d", dst.Size())
	}

	m.writes = 0
	empty := s.Clone(s.NewRegion(4096, nil), m)
	if empty.Footprint() != 0 || empty.Size() != 0 || m.writes != 0 {
		t.Fatalf("empty clone: footprint %d size %d writes %d", empty.Footprint(), empty.Size(), m.writes)
	}
}

func TestRelease(t *testing.T) {
	s := NewSpace()
	r1 := s.NewRegion(4096, nil)
	r2 := s.NewRegion(4096, nil)
	a, _ := r2.Alloc(16)
	r2.Write(a, []byte("hello"))

	s.Release(r1)
	if s.Region(r1.Index()) != nil {
		t.Error("released region still resolvable")
	}
	if !r1.Released() {
		t.Error("Released() false after release")
	}
	// Other regions unaffected.
	if got := string(r2.Read(a, 5)); got != "hello" {
		t.Errorf("r2 data corrupted after releasing r1: %q", got)
	}
	// Alloc in a released region fails.
	if _, err := r1.Alloc(8); err == nil {
		t.Error("Alloc in released region succeeded")
	}
	// Double release is a no-op.
	s.Release(r1)
	// Regions() elides the released slot.
	for _, r := range s.Regions() {
		if r == r1 {
			t.Error("Regions() includes released region")
		}
	}
}

type countingMeter struct {
	reads, writes, readBytes, writeBytes int
}

func (m *countingMeter) OnRead(n int)          { m.OnReads(1, n) }
func (m *countingMeter) OnReads(count, n int)  { m.reads += count; m.readBytes += n }
func (m *countingMeter) OnWrite(n int)         { m.OnWrites(1, n) }
func (m *countingMeter) OnWrites(count, n int) { m.writes += count; m.writeBytes += n }

func TestMeterCharges(t *testing.T) {
	s := NewSpace()
	m := &countingMeter{}
	r := s.NewRegion(4096, m)
	a, _ := r.Alloc(64)

	r.Write(a, make([]byte, 10))
	if m.writeBytes != 10 {
		t.Errorf("writeBytes = %d, want 10", m.writeBytes)
	}
	r.Read(a, 10)
	if m.readBytes != 10 {
		t.Errorf("readBytes = %d, want 10", m.readBytes)
	}
	r.Store64(a, 1)
	if m.writeBytes != 18 {
		t.Errorf("writeBytes after Store64 = %d, want 18", m.writeBytes)
	}
	r.ChargeWrite(200)
	if m.readBytes != 10 || m.writeBytes != 218 {
		t.Errorf("ChargeWrite: read=%d write=%d", m.readBytes, m.writeBytes)
	}
	// Bytes() and Load64 are unmetered by design: no further charges.
	before := m.readBytes
	r.Bytes(a, 8)
	r.Load64(a)
	if m.readBytes != before {
		t.Errorf("Bytes/Load64 charged the meter: %d -> %d", before, m.readBytes)
	}
}

func TestRestoreSparseRegions(t *testing.T) {
	s := NewSpace()
	// Restore regions at sparse indices, as the checkpoint loader does
	// when volatile regions are absent from the image.
	r5, err := s.Restore(5, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r5.RestoreExtent(10000); err != nil {
		t.Fatal(err)
	}
	if r5.Size() != 10000 {
		t.Errorf("Size = %d", r5.Size())
	}
	// Gaps resolve to nil.
	for i := uint32(0); i < 5; i++ {
		if s.Region(i) != nil {
			t.Errorf("gap region %d not nil", i)
		}
	}
	// Occupied slots are rejected.
	if _, err := s.Restore(5, 4096, nil); err == nil {
		t.Error("restore into occupied slot accepted")
	}
	// NewRegion continues past restored indices without collision.
	fresh := s.NewRegion(4096, nil)
	if fresh.Index() <= 5 {
		t.Errorf("fresh region index %d collides with restored range", fresh.Index())
	}
	// Data written into the restored extent is addressable.
	addr := r5.Base().Add(8192)
	r5.Write(addr, []byte("restored"))
	if got := string(r5.Read(addr, 8)); got != "restored" {
		t.Errorf("restored region data = %q", got)
	}
}

// A Span is the chunk lookup done once: its accessors never consult the
// region again, and refuse what lies outside the resolved extent.
func TestSpanReadsWithoutLookingTheChunkUpAgain(t *testing.T) {
	s := NewSpace()
	r := s.NewRegion(4096, nil)
	a, err := r.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	r.PutUint64(a.Add(8), 0xfeedface)
	copy(r.Bytes(a.Add(16), 5), "hello")
	sp := r.Span(a)

	// Take the chunk table away: whatever still reads, reads through the
	// resolution made above.
	table := r.chunks.Load()
	r.chunks.Store(&[][]byte{})
	if got := sp.Uint64(8); got != 0xfeedface {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := sp.Load64(8); got != 0xfeedface {
		t.Errorf("Load64 = %#x", got)
	}
	if got := string(sp.Bytes(16, 5)); got != "hello" {
		t.Errorf("Bytes = %q", got)
	}
	sp.Store64(24, 7)
	sp.PutUint64(32, 9)
	r.chunks.Store(table)
	if r.Load64(a.Add(24)) != 7 || r.Uint64(a.Add(32)) != 9 {
		t.Error("stores through the span did not reach the region")
	}

	left := 4096 - int(a.Offset())
	for what, f := range map[string]func(){
		"bytes past the extent":    func() { sp.Bytes(left-4, 5) },
		"bytes at a negative off":  func() { sp.Bytes(-1, 1) },
		"negative length":          func() { sp.Bytes(0, -1) },
		"word past the extent":     func() { sp.Load64(left - 4) },
		"word at a negative off":   func() { sp.Store64(-8, 0) },
		"misaligned word":          func() { sp.Load64(4) },
		"address outside a chunk":  func() { r.Span(r.Base().Add(1 << 20)) },
		"plain word past the end":  func() { sp.Uint64(left) },
		"plain store past the end": func() { sp.PutUint64(left-7, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", what)
				}
			}()
			f()
		}()
	}
	if got := len(sp.Bytes(left, 0)); got != 0 {
		t.Errorf("empty range at the extent's end has %d bytes", got)
	}
}
