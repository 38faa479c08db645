// Package vaddr implements a 64-bit virtual address space over growable,
// chunked byte arenas.
//
// It is the foundation of the simulated byte-addressable NVM: persistent
// data structures (skip lists, write-ahead logs, superblocks) store links
// between nodes as Addr values — plain uint64 virtual addresses — instead of
// Go pointers. The Go garbage collector never scans arena contents, which
// sidesteps the classic problem of building persistent pointer-based
// structures in a garbage-collected language, and mirrors how a real
// persistent-memory program addresses a mapped DCPMM region.
//
// Address layout (64 bits):
//
//	[ region index : 24 bits ][ offset within region : 40 bits ]
//
// Each region owns up to 1 TiB of virtual space, backed lazily by chunks
// laid out at a fixed stride; a chunk may be backed by fewer bytes than
// the stride (see Region). Chunks never move once allocated, so readers
// may hold byte slices into a region while other goroutines allocate —
// the single-writer / many-reader discipline used throughout the store.
// A chunk outlives its region only through Recycle, which passes a
// released region's first chunk to a new region of the same shape.
//
// Addr 0 is the nil address: region 0 reserves its first word so that no
// live object is ever placed at address 0.
package vaddr

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Addr is a virtual address inside a Space. The zero value is the nil
// address and never refers to a live object.
type Addr uint64

// NilAddr is the zero Addr, used as the null link in persistent structures.
const NilAddr Addr = 0

const (
	offsetBits = 40
	offsetMask = (1 << offsetBits) - 1

	// MaxRegionSize is the largest virtual extent of a single region.
	MaxRegionSize = int64(1) << offsetBits
)

// Region returns the region index encoded in the address.
func (a Addr) Region() uint32 { return uint32(a >> offsetBits) }

// Offset returns the byte offset within the region.
func (a Addr) Offset() int64 { return int64(a & offsetMask) }

// Add returns the address n bytes past a. It must not cross a region
// boundary; callers allocate objects so that they never do.
func (a Addr) Add(n int64) Addr { return a + Addr(n) }

// IsNil reports whether a is the nil address.
func (a Addr) IsNil() bool { return a == NilAddr }

// String renders the address as region:offset for diagnostics.
func (a Addr) String() string {
	if a.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%d:%#x", a.Region(), a.Offset())
}

// Meter observes traffic into and out of a region. The NVM and SSD device
// models implement it to charge bandwidth/latency costs and to account
// bytes for the write-amplification metric.
type Meter interface {
	// OnRead is invoked before n bytes are read from the region.
	OnRead(n int)
	// OnReads charges count reads totalling n bytes in one call. A
	// multi-step walk (a skip-list search, one step of a sorted drain)
	// tallies its accesses and settles them here once, instead of paying a
	// call — and the device's shared counters — per node; the totals equal
	// count OnRead calls.
	OnReads(count, n int)
	// OnWrite is invoked before n bytes are written to the region.
	OnWrite(n int)
	// OnWrites is OnReads for stores: count writes totalling n bytes,
	// already made, settled in one call; the totals equal count OnWrite
	// calls.
	OnWrites(count, n int)
}

// Space is a collection of regions forming one virtual address space.
// A Space is safe for concurrent use.
//
// The region table is an array of atomic slots that doubles when it
// fills: NewRegion and Release store one slot in place, so neither costs
// more as regions accumulate, and a lookup is one load and an index.
// Slots are written only under mu; a grown table is published only after
// every slot has been copied into it.
type Space struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]atomic.Pointer[Region]]
	next  uint32 // index of the next NewRegion; guarded by mu
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{}
	slots := make([]atomic.Pointer[Region], 16)
	s.slots.Store(&slots)
	return s
}

// NewRegion creates a region with the given chunk size (rounded up to a
// power of two, minimum 4 KiB), every chunk backed in full. Objects
// allocated in the region must fit in a single chunk. meter may be nil.
func (s *Space) NewRegion(chunkSize int, meter Meter) *Region {
	return s.NewRegionGrain(chunkSize, chunkSize, meter)
}

// NewRegionGrain creates a region whose chunks are chunkSize apart (the
// stride, rounded up to a power of two, minimum 4 KiB) but backed by only
// grain bytes each (rounded up to 8, capped at the stride): an arena that
// is meant to fill a fraction of one chunk commits that fraction. An
// allocation larger than the grain opens a chunk backed by its own size.
// With grain equal to the stride this is NewRegion.
func (s *Space) NewRegionGrain(chunkSize, grain int, meter Meter) *Region {
	return s.NewRegionSpare(chunkSize, grain, meter, Spare{})
}

// NewRegionSpare is NewRegionGrain with spare, a chunk Recycle took from
// a released region, as the first chunk when it Fits the new region's
// shape; a spare that does not fit is dropped. The region attaches the
// chunk at its first Alloc, and only if that Alloc opens a chunk of the
// grain; until then it commits nothing, so Footprint reads 0 as for a
// fresh region. Attaching clears the chunk, uncharged, as a fresh chunk's
// zero memory is uncharged: a reused chunk reads all zero, so a log in it
// never replays a record of the chunk's previous life. The region's index
// is a fresh one, never the released region's, so the space hands out
// indices in the same order whether or not a chunk is reused.
func (s *Space) NewRegionSpare(chunkSize, grain int, meter Meter, spare Spare) *Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.next
	if int64(idx) >= 1<<24 {
		panic("vaddr: region index space exhausted")
	}
	r := s.makeRegion(idx, chunkSize, grain, meter)
	if spare.Fits(r.chunkSize, r.grain) {
		r.spare = spare.chunk
	}
	if idx == 0 {
		// Reserve the first word of region 0 so that Addr 0 is never a
		// live object: the nil-address invariant.
		if _, err := r.Alloc(8); err != nil {
			panic(err)
		}
	}
	s.slotLocked(idx).Store(r)
	s.next++
	return r
}

// Restore places a region at a specific index — the checkpoint-image
// loader rebuilding a space whose region indices are baked into persisted
// virtual addresses. The slot must be vacant; slots below it stay empty
// (they were volatile regions not captured in the image). A restored
// region's chunks are backed in full.
func (s *Space) Restore(index uint32, chunkSize int, meter Meter) (*Region, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.slotLocked(index)
	if slot.Load() != nil {
		return nil, fmt.Errorf("vaddr: restore into occupied region slot %d", index)
	}
	r := s.makeRegion(index, chunkSize, chunkSize, meter)
	slot.Store(r)
	if index >= s.next {
		s.next = index + 1
	}
	return r, nil
}

// slotLocked returns the table slot of index, doubling the table until it
// has one. Caller holds s.mu.
func (s *Space) slotLocked(index uint32) *atomic.Pointer[Region] {
	t := *s.slots.Load()
	if int(index) >= len(t) {
		n := 2 * len(t)
		for n <= int(index) {
			n *= 2
		}
		grown := make([]atomic.Pointer[Region], n)
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		s.slots.Store(&grown)
		t = grown
	}
	return &t[index]
}

// noChunks is the chunk table of a region that has committed nothing.
// It has no capacity, so the first append to it allocates a table of the
// region's own and every such region can share it.
var noChunks = new([][]byte)

// makeRegion builds an empty, not yet published region. The chunk size is
// rounded up to a power of two (minimum 4 KiB) so offset math is a shift
// and a mask, both fixed here once.
func (s *Space) makeRegion(index uint32, chunkSize, grain int, meter Meter) *Region {
	cs, grain := shape(chunkSize, grain)
	r := &Region{
		space:      s,
		index:      index,
		base:       Addr(uint64(index) << offsetBits),
		chunkSize:  cs,
		chunkShift: uint(bits.TrailingZeros(uint(cs))),
		chunkMask:  int64(cs - 1),
		grain:      grain,
		meter:      meter,
	}
	r.chunks.Store(noChunks)
	return r
}

// shape rounds a requested stride and grain the way every region does:
// the stride up to a power of two of at least 4 KiB, the grain up to 8
// bytes and capped at the stride (a grain of 0 or less is the stride).
func shape(chunkSize, grain int) (int, int) {
	cs := 4096
	for cs < chunkSize {
		cs <<= 1
	}
	grain = (grain + 7) &^ 7
	if grain <= 0 || grain > cs {
		grain = cs
	}
	return cs, grain
}

// Region returns the region with the given index, or nil if none exists.
func (s *Space) Region(index uint32) *Region {
	t := *s.slots.Load()
	if int(index) >= len(t) {
		return nil
	}
	return t[index].Load()
}

// RegionOf resolves the region containing addr, or nil for NilAddr or a
// released region.
func (s *Space) RegionOf(addr Addr) *Region {
	if addr.IsNil() {
		return nil
	}
	return s.Region(addr.Region())
}

// Release detaches a region from the space: new allocations fail, and
// address resolution through the space no longer finds it, so the Go
// garbage collector reclaims the chunks once the last direct holder drops
// its reference. A reader that already resolved the region keeps seeing
// intact (stale but consistent) data — the property the stores rely on
// when they retire memtables and arenas while lock-free readers may still
// be traversing them (arena-granularity garbage collection, mirroring the
// paper's lazy memory freeing). Recycle is the other way out of the
// space: it hands r's first chunk to a new region, so a reader still
// holding r must not exist, and one that does panics rather than read
// the new region's data.
func (s *Space) Release(r *Region) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.slots.Load()
	if int(r.index) >= len(t) || t[r.index].Load() != r {
		return // already released
	}
	t[r.index].Store(nil)
	r.released.Store(true)
}

// Spare is the first chunk of a region Recycle released, held for a new
// region of the same shape (NewRegionSpare). The zero Spare holds none.
type Spare struct {
	chunk     []byte // its region's grain long
	chunkSize int
}

// Fits reports whether a region made with chunkSize and grain, rounded as
// NewRegionGrain rounds them, takes sp's chunk.
func (sp Spare) Fits(chunkSize, grain int) bool {
	cs, g := shape(chunkSize, grain)
	return sp.chunkSize == cs && len(sp.chunk) == g
}

// Recycle is Release for a region whose first chunk a later region of
// the same shape takes over (NewRegionSpare). It differs from Release's
// stale-reader contract: r keeps no chunks, so an access through r
// panics instead of reading what the chunk's next region writes. The
// caller must know that no reader still holds r — a store recycles only
// in a release function that runs after its readers' grace period. A
// region that committed nothing passes on the spare it was made with. ok
// is false when r has no chunk of its grain to pass on: a clone, or a
// region whose first chunk an allocation larger than its grain opened.
func (s *Space) Recycle(r *Region) (sp Spare, ok bool) {
	s.Release(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.spare
	if chunks := *r.chunks.Load(); len(chunks) > 0 {
		first = chunks[0]
	}
	r.chunks.Store(noChunks)
	r.spare = nil
	if r.clone || len(first) != r.grain {
		return Spare{}, false
	}
	return Spare{chunk: first, chunkSize: r.chunkSize}, true
}

// Regions returns a snapshot of the live regions.
func (s *Space) Regions() []*Region {
	t := *s.slots.Load()
	out := make([]*Region, 0, len(t))
	for i := range t {
		if r := t[i].Load(); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Region is a growable arena inside a Space. Allocation is bump-pointer;
// individual objects are never freed — the whole region is released at once
// when the structures inside it become garbage.
//
// A region has two sizes. The stride (ChunkSize) spaces its chunks in the
// virtual address space: it fixes the offset arithmetic and bounds the
// largest object. The grain is how many bytes actually back a chunk: a
// chunk is committed with max(grain, n) bytes, n being the allocation
// that opens it, and an allocation that does not fit the rest of its
// chunk's backing starts at the next stride. Between a chunk's backing
// end and the next stride lies a hole that no address resolves into.
// With grain equal to the stride every chunk is backed in full.
type Region struct {
	space      *Space
	index      uint32
	base       Addr
	chunkSize  int
	chunkShift uint // log2(chunkSize)
	chunkMask  int64
	grain      int
	meter      Meter
	released   atomic.Bool
	// clone marks a region made by Space.Clone: a sealed copy whose chunks
	// are cut to the copied bytes, so it can never be allocated from.
	clone bool

	mu       sync.Mutex // guards allocOff, chunk growth and spare
	allocOff int64
	chunks   atomic.Pointer[[][]byte] // republished on growth; chunks never move
	// spare is a recycled chunk of the grain, attached as the first chunk
	// when the first Alloc opens one (NewRegionSpare); nil once attached or
	// passed over.
	spare []byte
}

// Index returns the region's index within its Space.
func (r *Region) Index() uint32 { return r.index }

// Space returns the address space the region belongs to.
func (r *Region) Space() *Space { return r.space }

// Base returns the first virtual address of the region.
func (r *Region) Base() Addr { return r.base }

// ChunkSize returns the stride between chunks, which bounds the largest
// object.
func (r *Region) ChunkSize() int { return r.chunkSize }

// Grain returns the bytes that back a chunk opened by an allocation no
// larger than it.
func (r *Region) Grain() int { return r.grain }

// Size returns the virtual end of the allocations so far: the offset the
// next allocation starts from, holes included.
func (r *Region) Size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.allocOff
}

// Used returns the bytes of committed chunks that lie below Size — the
// bytes a Clone copies and charges. It equals Size for a region whose
// chunks are all backed in full, and leaves out the holes of one that is
// not.
func (r *Region) Used() int64 {
	r.mu.Lock()
	extent, chunks := r.allocOff, *r.chunks.Load()
	r.mu.Unlock()
	return r.usedBelow(chunks, extent)
}

// Footprint returns the bytes of backing memory currently committed.
func (r *Region) Footprint() int64 {
	return r.usedBelow(*r.chunks.Load(), MaxRegionSize)
}

// usedBelow sums chunkUsed over chunks.
func (r *Region) usedBelow(chunks [][]byte, extent int64) int64 {
	var n int64
	for i, c := range chunks {
		n += r.chunkUsed(i, c, extent)
	}
	return n
}

// chunkUsed is the one per-chunk length rule Used, Footprint and Clone
// share: the bytes of chunk i, backed by c, that lie below extent.
func (r *Region) chunkUsed(i int, c []byte, extent int64) int64 {
	return max(0, min(int64(len(c)), extent-int64(i)<<r.chunkShift))
}

// ChunkEnd returns the end of the backing of the chunk holding off: an
// object starting at off that would run past it is placed at the next
// stride instead. For a chunk not committed yet it is the chunk's start,
// and for an offset inside a hole it is below off.
func (r *Region) ChunkEnd(off int64) int64 {
	chunks := *r.chunks.Load()
	ci := int(off >> r.chunkShift)
	start := int64(ci) << r.chunkShift
	if ci >= len(chunks) {
		return start
	}
	return start + int64(len(chunks[ci]))
}

// Released reports whether the region's memory has been dropped.
func (r *Region) Released() bool { return r.released.Load() }

// Alloc reserves n bytes (rounded up to 8-byte alignment) and returns the
// address of the reservation. The reservation never runs past the backing
// of its chunk; n must be at most ChunkSize. Alloc charges the region's
// meter for the allocation write traffic lazily — callers charge on
// actual writes.
func (r *Region) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return NilAddr, fmt.Errorf("vaddr: invalid allocation size %d", n)
	}
	n = (n + 7) &^ 7
	if n > r.chunkSize {
		return NilAddr, fmt.Errorf("vaddr: allocation %d exceeds chunk size %d", n, r.chunkSize)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released.Load() {
		return NilAddr, fmt.Errorf("vaddr: allocation in released region %d", r.index)
	}
	if r.clone {
		return NilAddr, fmt.Errorf("vaddr: allocation in cloned region %d", r.index)
	}
	off := r.allocOff
	ci := int(off >> r.chunkShift)
	if ci < len(*r.chunks.Load()) && off+int64(n) > r.ChunkEnd(off) {
		// The object would run past its chunk's backing: start it at the
		// next stride, where it opens a new chunk.
		ci++
		off = int64(ci) << r.chunkShift
	}
	end := off + int64(n)
	if end > MaxRegionSize {
		return NilAddr, fmt.Errorf("vaddr: region %d virtual space exhausted", r.index)
	}
	r.ensureLocked(ci+1, max(r.grain, n))
	r.allocOff = end
	return r.base.Add(off), nil
}

// ensureLocked commits chunks until there are need of them, each new one
// backed by size bytes. Caller holds r.mu. The table is appended to in
// place: a reader holding the old table never indexes past its length.
func (r *Region) ensureLocked(need, size int) {
	cur := *r.chunks.Load()
	if len(cur) >= need {
		return
	}
	next := cur
	for len(next) < need {
		if len(next) == 0 && len(r.spare) == size {
			clear(r.spare)
			next = append(next, r.spare)
		} else {
			next = append(next, alignedChunk(size))
		}
	}
	r.spare = nil
	r.chunks.Store(&next)
}

// chunkFor returns the chunk and intra-chunk offset for a region offset.
func (r *Region) chunkFor(off int64) ([]byte, int) {
	chunks := *r.chunks.Load()
	ci := int(off >> r.chunkShift)
	if ci >= len(chunks) {
		panic(fmt.Sprintf("vaddr: access past end of region %d at offset %#x (released=%v)",
			r.index, off, r.released.Load()))
	}
	return chunks[ci], int(off & r.chunkMask)
}

// Bytes returns the n bytes at addr as a slice aliasing the backing chunk.
// The range must lie within the backing of one chunk (guaranteed for any
// single Alloc reservation). No meter charge is applied; use Read/Write
// for metered access.
func (r *Region) Bytes(addr Addr, n int) []byte {
	c, o := r.chunkFor(addr.Offset())
	if o+n > len(c) {
		panic(fmt.Sprintf("vaddr: range [%v,+%d) crosses chunk boundary", addr, n))
	}
	return c[o : o+n : o+n]
}

// Read returns the n bytes at addr, charging the meter for a read.
func (r *Region) Read(addr Addr, n int) []byte {
	if r.meter != nil {
		r.meter.OnRead(n)
	}
	return r.Bytes(addr, n)
}

// Write copies data to addr, charging the meter for a write.
func (r *Region) Write(addr Addr, data []byte) {
	if r.meter != nil {
		r.meter.OnWrite(len(data))
	}
	copy(r.Bytes(addr, len(data)), data)
}

// Meter returns the region's meter (may be nil).
func (r *Region) Meter() Meter { return r.meter }

// ChargeWrite charges the region's meter for an n-byte write.
func (r *Region) ChargeWrite(n int) {
	if r.meter != nil {
		r.meter.OnWrite(n)
	}
}

// RestoreExtent commits chunks covering [0, extent), each backed in full,
// and sets the allocation cursor — the second half of checkpoint-image
// loading, before the loader copies the saved bytes in.
func (r *Region) RestoreExtent(extent int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked(int((extent+r.chunkMask)>>r.chunkShift), r.chunkSize)
	if extent > r.allocOff {
		r.allocOff = extent
	}
	return nil
}
