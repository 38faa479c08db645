package vaddr

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// This file is the only place in the repository that uses package unsafe.
// It provides 8-byte atomic loads and stores on arena memory, the analogue
// of the 8-byte atomic writes to persistent memory that the paper's
// zero-copy compaction relies on ("we exploit atomic writes to update
// pointers in a lock-free manner", §4.3), and Span, an address resolved
// to its chunk once. Chunks are allocated 8-byte aligned (see
// alignedChunk), and Alloc rounds every reservation to 8 bytes, so any
// word-offset access is aligned.

// alignedChunk allocates a chunk of the given size (at least 8) whose
// first byte is 8-byte aligned. Go's allocator returns 8-aligned blocks for
// every size of 8 or more, so the chunk is allocated at exactly its size —
// a spare word would push a page-sized chunk into the next size class —
// and the check only guards that property.
func alignedChunk(size int) []byte {
	b := make([]byte, size)
	if uintptr(unsafe.Pointer(&b[0]))&7 != 0 {
		panic("vaddr: chunk not 8-byte aligned")
	}
	return b
}

// word returns a pointer to the aligned 8-byte word at addr.
func (r *Region) word(addr Addr) *uint64 {
	c, o := r.chunkFor(addr.Offset())
	if o&7 != 0 {
		panic("vaddr: unaligned atomic access at " + addr.String())
	}
	return (*uint64)(unsafe.Pointer(&c[o]))
}

// Load64 atomically loads the 8-byte word at addr.
func (r *Region) Load64(addr Addr) uint64 {
	return atomic.LoadUint64(r.word(addr))
}

// Store64 atomically stores v to the 8-byte word at addr, charging the
// meter for an 8-byte write. These stores are the entire write traffic of a
// zero-copy compaction.
func (r *Region) Store64(addr Addr, v uint64) {
	if r.meter != nil {
		r.meter.OnWrite(8)
	}
	atomic.StoreUint64(r.word(addr), v)
}

// PutUint64 writes v non-atomically (little endian) without metering; used
// while initializing freshly allocated, not-yet-published objects.
func (r *Region) PutUint64(addr Addr, v uint64) {
	binary.LittleEndian.PutUint64(r.Bytes(addr, 8), v)
}

// Uint64 reads a word non-atomically (little endian) without metering; safe
// for fields that are immutable after publication.
func (r *Region) Uint64(addr Addr) uint64 {
	return binary.LittleEndian.Uint64(r.Bytes(addr, 8))
}

// Span is an address resolved to memory: a pointer to the byte at the
// address and the number of bytes from there to the end of its chunk. A
// structure that reads one object many times (a skip-list node: header,
// tower, key, value) resolves it once and reads through the Span, instead
// of looking the chunk up per field. Every access is an offset from the
// resolved address and is checked against the extent, so it panics where
// Bytes and the atomic word accessors would. A Span is comparable and
// unmetered; its owner charges the region's meter.
//
// The extent keeps the bytes past a chunk's backing out of reach.
type Span struct {
	p unsafe.Pointer
	n int
}

// Span resolves addr, which must lie inside a committed chunk.
func (r *Region) Span(addr Addr) Span {
	c, o := r.chunkFor(addr.Offset())
	if o >= len(c) {
		panic(fmt.Sprintf("vaddr: address %v past the end of its chunk", addr))
	}
	return Span{p: unsafe.Pointer(&c[o]), n: len(c) - o}
}

// spanFault is the panic value of an access the extent or the alignment
// rules out. Building the message in Error keeps the accessors inlinable.
type spanFault struct{ off, n, extent int }

func (f spanFault) Error() string {
	if f.off >= 0 && f.n >= 0 && f.off+f.n <= f.extent {
		return fmt.Sprintf("vaddr: unaligned atomic access at +%d", f.off)
	}
	return fmt.Sprintf("vaddr: range [+%d,+%d) crosses chunk boundary (%d bytes left)", f.off, f.off+f.n, f.extent)
}

// word returns the aligned 8-byte word at off.
func (s Span) word(off int) *uint64 {
	if off < 0 || off > s.n-8 || (uintptr(s.p)+uintptr(off))&7 != 0 {
		panic(spanFault{off, 8, s.n})
	}
	return (*uint64)(unsafe.Add(s.p, off))
}

// Bytes returns the n bytes at off as a slice aliasing the chunk.
func (s Span) Bytes(off, n int) []byte {
	if uint(off) > uint(s.n) || uint(n) > uint(s.n-off) {
		panic(spanFault{off, n, s.n})
	}
	if n == 0 {
		// An empty range may start at the very end of the chunk, and
		// unsafe.Add must not point past the allocation.
		return unsafe.Slice((*byte)(s.p), 0)
	}
	return unsafe.Slice((*byte)(unsafe.Add(s.p, off)), n)
}

// Uint64 reads the word at off non-atomically (little endian); safe for
// fields that are immutable after publication.
func (s Span) Uint64(off int) uint64 { return binary.LittleEndian.Uint64(s.Bytes(off, 8)) }

// PutUint64 writes the word at off non-atomically (little endian); for
// objects not yet published.
func (s Span) PutUint64(off int, v uint64) { binary.LittleEndian.PutUint64(s.Bytes(off, 8), v) }

// Load64 atomically loads the aligned word at off.
func (s Span) Load64(off int) uint64 { return atomic.LoadUint64(s.word(off)) }

// Store64 atomically stores v to the aligned word at off.
func (s Span) Store64(off int, v uint64) { atomic.StoreUint64(s.word(off), v) }
