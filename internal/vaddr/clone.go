package vaddr

// Clone creates a new region in the space with the same stride as src,
// bulk-copies src's used bytes into it chunk-by-chunk, and returns the new
// region. Intra-region offsets are preserved exactly, so an address a
// pointing into src maps to the identical offset in the clone:
//
//	clone.Base() + a.Offset()
//
// This is the machinery behind one-piece flushing (§4.2): the immutable
// MemTable's arena is copied to NVM as one batched memcpy, after which a
// background pass "swizzles" every stored pointer by rebasing its region
// index — see pmtable.Swizzle.
//
// The destination meter is charged once for the full transfer, modeling a
// single streaming write at device bandwidth: src.Used() bytes.
//
// The clone commits only what it copies: each chunk is cut to the bytes
// of its source chunk below the extent (Used's per-chunk rule), so a small
// memtable does not pin a whole chunk of NVM for as long as its nodes
// live, and the holes of a short-grain source stay holes. A clone is
// therefore sealed — Alloc on it fails; lists over it only ever re-link
// the copied nodes.
func (s *Space) Clone(src *Region, meter Meter) *Region {
	dst := s.NewRegion(src.chunkSize, meter)

	src.mu.Lock()
	extent, srcChunks := src.allocOff, *src.chunks.Load()
	src.mu.Unlock()

	chunks := make([][]byte, 0, len(srcChunks))
	var used int64
	for i, sc := range srcChunks {
		n := src.chunkUsed(i, sc, extent)
		c := alignedChunk(int((n + 7) &^ 7))
		copy(c, sc[:n])
		chunks = append(chunks, c)
		used += n
	}
	if meter != nil && used > 0 {
		meter.OnWrite(int(used))
	}

	dst.mu.Lock()
	dst.clone = true
	dst.allocOff = extent
	dst.chunks.Store(&chunks)
	dst.mu.Unlock()
	return dst
}

// Rebase translates an address from one region's space to another region
// created by Clone: same offset, new region index. Nil stays nil and
// addresses outside src are returned unchanged.
func Rebase(a Addr, src, dst *Region) Addr {
	if a.IsNil() || a.Region() != src.index {
		return a
	}
	return dst.base.Add(a.Offset())
}
