package vaddr

import "testing"

// recycled fills a region of stride and grain with nonzero bytes up to
// the end of its first chunk and recycles it, returning the region, the
// chunk's first byte and the spare.
func recycled(t *testing.T, s *Space, stride, grain int) (*Region, *byte, Spare) {
	t.Helper()
	r := s.NewRegionGrain(stride, grain, nil)
	a, err := r.Alloc(grain)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Bytes(a, grain)
	for i := range b {
		b[i] = 0xa5
	}
	sp, ok := s.Recycle(r)
	if !ok {
		t.Fatal("Recycle passed on no chunk")
	}
	return r, &b[0], sp
}

func TestRecycledRegionPanicsOnStaleAccess(t *testing.T) {
	s := NewSpace()
	s.NewRegion(4096, nil) // region 0
	r, _, sp := recycled(t, s, 16<<10, 8<<10)
	if !r.Released() || s.Region(r.Index()) != nil {
		t.Fatal("a recycled region is still in the space")
	}
	if r.Footprint() != 0 || r.Used() != 0 {
		t.Fatalf("recycled region still commits %d B (used %d)", r.Footprint(), r.Used())
	}
	next := s.NewRegionSpare(16<<10, 8<<10, nil, sp)
	if _, err := next.Alloc(64); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "a read through the recycled region", func() { r.Bytes(r.Base(), 8) })
	mustPanic(t, "an atomic load through the recycled region", func() { r.Load64(r.Base()) })
	if _, err := r.Alloc(8); err == nil {
		t.Fatal("allocated in a recycled region")
	}
}

func TestSpareAttachesAtFirstAlloc(t *testing.T) {
	s := NewSpace()
	s.NewRegion(4096, nil)
	old, first, sp := recycled(t, s, 16<<10, 8<<10)
	r := s.NewRegionSpare(16<<10, 8<<10, nil, sp)
	if r.Index() <= old.Index() {
		t.Fatalf("reused chunk went to index %d, not a fresh one above %d", r.Index(), old.Index())
	}
	if r.Footprint() != 0 || r.Used() != 0 {
		t.Fatalf("footprint %d, used %d before the first Alloc", r.Footprint(), r.Used())
	}
	a, err := r.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if r.Footprint() != 8<<10 {
		t.Fatalf("footprint %d after the first Alloc, want the grain", r.Footprint())
	}
	if &r.Bytes(a, 8)[0] != first {
		t.Fatal("the first Alloc did not attach the spare chunk")
	}
}

func TestReusedChunkReadsZero(t *testing.T) {
	s := NewSpace()
	s.NewRegion(4096, nil)
	_, first, sp := recycled(t, s, 16<<10, 8<<10)
	meter := &countingMeter{}
	log := s.NewRegionSpare(16<<10, 8<<10, meter, sp)
	a, err := log.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	whole := log.Bytes(a, 8<<10)
	if &whole[0] != first {
		t.Fatal("the log did not get the spare chunk")
	}
	for i, b := range whole {
		if b != 0 {
			t.Fatalf("byte %d of the reused chunk reads %#x", i, b)
		}
	}
	if meter.writes != 0 || meter.writeBytes != 0 {
		t.Fatalf("clearing the reused chunk charged %d writes, %d B", meter.writes, meter.writeBytes)
	}
}

func TestSpareOfAnotherShapeIsDropped(t *testing.T) {
	s := NewSpace()
	s.NewRegion(4096, nil)
	for _, c := range []struct {
		name          string
		stride, grain int
	}{
		{"grain", 16 << 10, 12 << 10},
		{"stride", 32 << 10, 8 << 10},
	} {
		_, first, sp := recycled(t, s, 16<<10, 8<<10)
		if sp.Fits(c.stride, c.grain) {
			t.Fatalf("%s: a 16 KiB/8 KiB spare fits %d/%d", c.name, c.stride, c.grain)
		}
		r := s.NewRegionSpare(c.stride, c.grain, nil, sp)
		a, err := r.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if &r.Bytes(a, 8)[0] == first {
			t.Fatalf("%s: a region of another shape took the spare", c.name)
		}
		if r.Footprint() != int64(c.grain) {
			t.Fatalf("%s: footprint %d, want %d", c.name, r.Footprint(), c.grain)
		}
	}
	// An allocation larger than the grain opens a chunk of its own size:
	// the spare is passed over, not stretched.
	_, first, sp := recycled(t, s, 16<<10, 8<<10)
	r := s.NewRegionSpare(16<<10, 8<<10, nil, sp)
	a, err := r.Alloc(12 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if &r.Bytes(a, 8)[0] == first || r.Footprint() != 12<<10 {
		t.Fatalf("an oversized first Alloc took the spare (footprint %d)", r.Footprint())
	}
	if sp, ok := s.Recycle(r); ok || sp.Fits(16<<10, 12<<10) {
		t.Fatal("a first chunk opened by an oversized Alloc was passed on")
	}
}

// TestUnattachedSpareIsPassedOn: a region that never allocated hands on
// the spare it was made with, and a region that committed nothing else
// has none to give.
func TestUnattachedSpareIsPassedOn(t *testing.T) {
	s := NewSpace()
	s.NewRegion(4096, nil)
	_, first, sp := recycled(t, s, 16<<10, 8<<10)
	idle := s.NewRegionSpare(16<<10, 8<<10, nil, sp)
	sp, ok := s.Recycle(idle)
	if !ok || !sp.Fits(16<<10, 8<<10) {
		t.Fatal("an unattached spare was not passed on")
	}
	r := s.NewRegionSpare(16<<10, 8<<10, nil, sp)
	a, err := r.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if &r.Bytes(a, 8)[0] != first {
		t.Fatal("the passed-on spare is not the first chunk")
	}
	if _, ok := s.Recycle(s.NewRegionGrain(16<<10, 8<<10, nil)); ok {
		t.Fatal("a region that committed nothing passed on a chunk")
	}
}
