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
// Each region owns up to 1 TiB of virtual space, backed lazily by fixed-size
// chunks. Chunks never move once allocated, so readers may hold byte slices
// into a region while other goroutines allocate — the single-writer /
// many-reader discipline used throughout the store.
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
type Space struct {
	mu      sync.Mutex
	regions atomic.Pointer[[]*Region]
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{}
	empty := make([]*Region, 0, 16)
	s.regions.Store(&empty)
	return s
}

// NewRegion creates a region with the given chunk size (rounded up to a
// power of two, minimum 4 KiB). Objects allocated in the region must fit in
// a single chunk. meter may be nil.
func (s *Space) NewRegion(chunkSize int, meter Meter) *Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.regions.Load()
	idx := uint32(len(cur))
	if int64(idx) >= 1<<24 {
		panic("vaddr: region index space exhausted")
	}
	r := s.makeRegion(idx, chunkSize, meter)
	if idx == 0 {
		// Reserve the first word of region 0 so that Addr 0 is never a
		// live object: the nil-address invariant.
		if _, err := r.Alloc(8); err != nil {
			panic(err)
		}
	}
	next := make([]*Region, len(cur)+1)
	copy(next, cur)
	next[idx] = r
	s.regions.Store(&next)
	return r
}

// Restore places a region at a specific index — the checkpoint-image
// loader rebuilding a space whose region indices are baked into persisted
// virtual addresses. The slot must be vacant; gaps below it are filled
// with nil entries (they were volatile regions not captured in the image).
func (s *Space) Restore(index uint32, chunkSize int, meter Meter) (*Region, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.regions.Load()
	if int(index) < len(cur) && cur[index] != nil {
		return nil, fmt.Errorf("vaddr: restore into occupied region slot %d", index)
	}
	r := s.makeRegion(index, chunkSize, meter)
	n := len(cur)
	if int(index) >= n {
		n = int(index) + 1
	}
	next := make([]*Region, n)
	copy(next, cur)
	next[index] = r
	s.regions.Store(&next)
	return r, nil
}

// makeRegion builds an empty, not yet published region. The chunk size is
// rounded up to a power of two (minimum 4 KiB) so offset math is a shift
// and a mask, both fixed here once.
func (s *Space) makeRegion(index uint32, chunkSize int, meter Meter) *Region {
	cs := 4096
	for cs < chunkSize {
		cs <<= 1
	}
	r := &Region{
		space:      s,
		index:      index,
		base:       Addr(uint64(index) << offsetBits),
		chunkSize:  cs,
		chunkShift: uint(bits.TrailingZeros(uint(cs))),
		chunkMask:  int64(cs - 1),
		meter:      meter,
	}
	chunks := make([][]byte, 0, 8)
	r.chunks.Store(&chunks)
	return r
}

// Region returns the region with the given index, or nil if none exists.
func (s *Space) Region(index uint32) *Region {
	cur := *s.regions.Load()
	if int(index) >= len(cur) {
		return nil
	}
	return cur[index]
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
// paper's lazy memory freeing).
func (s *Space) Release(r *Region) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.regions.Load()
	if int(r.index) >= len(cur) || cur[r.index] != r {
		return // already released
	}
	next := make([]*Region, len(cur))
	copy(next, cur)
	next[r.index] = nil
	s.regions.Store(&next)
	r.released.Store(true)
}

// Regions returns a snapshot of the live regions (nil entries elided).
func (s *Space) Regions() []*Region {
	cur := *s.regions.Load()
	out := make([]*Region, 0, len(cur))
	for _, r := range cur {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Region is a growable arena inside a Space. Allocation is bump-pointer;
// individual objects are never freed — the whole region is released at once
// when the structures inside it become garbage.
type Region struct {
	space      *Space
	index      uint32
	base       Addr
	chunkSize  int
	chunkShift uint // log2(chunkSize)
	chunkMask  int64
	meter      Meter
	released   atomic.Bool
	// clone marks a region made by Space.Clone: a sealed copy whose last
	// chunk is cut to the copied extent, so it can never be allocated from.
	clone bool

	mu       sync.Mutex // guards allocOff and chunk growth
	allocOff int64
	chunks   atomic.Pointer[[][]byte] // copy-on-append; chunks never move
}

// Index returns the region's index within its Space.
func (r *Region) Index() uint32 { return r.index }

// Space returns the address space the region belongs to.
func (r *Region) Space() *Space { return r.space }

// Base returns the first virtual address of the region.
func (r *Region) Base() Addr { return r.base }

// ChunkSize returns the backing chunk size in bytes.
func (r *Region) ChunkSize() int { return r.chunkSize }

// Size returns the number of bytes allocated so far.
func (r *Region) Size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.allocOff
}

// Footprint returns the bytes of backing memory currently committed. Every
// chunk is chunkSize long except a clone's last one, which is cut to the
// copied extent.
func (r *Region) Footprint() int64 {
	chunks := *r.chunks.Load()
	if len(chunks) == 0 {
		return 0
	}
	return int64(len(chunks)-1)*int64(r.chunkSize) + int64(len(chunks[len(chunks)-1]))
}

// Released reports whether the region's memory has been dropped.
func (r *Region) Released() bool { return r.released.Load() }

// Alloc reserves n bytes (rounded up to 8-byte alignment) and returns the
// address of the reservation. The reservation never spans a chunk boundary;
// n must be at most ChunkSize. Alloc charges the region's meter for the
// allocation write traffic lazily — callers charge on actual writes.
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
	// Pad to the next chunk if the object would straddle a boundary.
	if off&^r.chunkMask != (off+int64(n)-1)&^r.chunkMask {
		off = (off + r.chunkMask) &^ r.chunkMask
	}
	end := off + int64(n)
	if end > MaxRegionSize {
		return NilAddr, fmt.Errorf("vaddr: region %d virtual space exhausted", r.index)
	}
	if err := r.ensureLocked(end); err != nil {
		return NilAddr, err
	}
	r.allocOff = end
	return r.base.Add(off), nil
}

// ensureLocked commits chunks to cover [0, end). Caller holds r.mu.
func (r *Region) ensureLocked(end int64) error {
	need := int((end + r.chunkMask) >> r.chunkShift)
	cur := *r.chunks.Load()
	if len(cur) >= need {
		return nil
	}
	next := make([][]byte, need)
	copy(next, cur)
	for i := len(cur); i < need; i++ {
		next[i] = alignedChunk(r.chunkSize)
	}
	r.chunks.Store(&next)
	return nil
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
// The range must lie within one chunk (guaranteed for any single Alloc
// reservation). No meter charge is applied; use Read/Write for metered
// access.
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

// CopyFrom bulk-copies length bytes from src at srcAddr to dst at dstAddr.
// It is the "one memcpy" primitive behind one-piece flushing: the copy
// proceeds chunk-by-chunk at full memory bandwidth and charges dst's meter
// once for the whole transfer.
func (r *Region) CopyFrom(dstAddr Addr, src *Region, srcAddr Addr, length int64) {
	if r.meter != nil {
		r.meter.OnWrite(int(length))
	}
	for length > 0 {
		sc, so := src.chunkFor(srcAddr.Offset())
		dc, do := r.chunkFor(dstAddr.Offset())
		n := int64(len(sc) - so)
		if m := int64(len(dc) - do); m < n {
			n = m
		}
		if n > length {
			n = length
		}
		copy(dc[do:do+int(n)], sc[so:so+int(n)])
		srcAddr = srcAddr.Add(n)
		dstAddr = dstAddr.Add(n)
		length -= n
	}
}

// Meter returns the region's meter (may be nil).
func (r *Region) Meter() Meter { return r.meter }

// ChargeRead charges the region's meter for an n-byte read without
// returning data. Callers use it when they access bytes through an
// unmetered path but still owe the device model the traffic.
func (r *Region) ChargeRead(n int) {
	if r.meter != nil {
		r.meter.OnRead(n)
	}
}

// ChargeWrite charges the region's meter for an n-byte write.
func (r *Region) ChargeWrite(n int) {
	if r.meter != nil {
		r.meter.OnWrite(n)
	}
}

// RestoreExtent commits backing chunks covering [0, extent) and sets the
// allocation cursor — the second half of checkpoint-image loading, before
// the loader copies the saved bytes in.
func (r *Region) RestoreExtent(extent int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ensureLocked(extent); err != nil {
		return err
	}
	if extent > r.allocOff {
		r.allocOff = extent
	}
	return nil
}
