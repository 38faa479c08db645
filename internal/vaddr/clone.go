package vaddr

// Clone creates a new region in the space with the same chunk size as src,
// bulk-copies src's entire allocated extent into it chunk-by-chunk, and
// returns the new region. Intra-region offsets are preserved exactly, so an
// address a pointing into src maps to the identical offset in the clone:
//
//	clone.Base() + a.Offset()
//
// This is the machinery behind one-piece flushing (§4.2): the immutable
// MemTable's arena is copied to NVM as one batched memcpy, after which a
// background pass "swizzles" every stored pointer by rebasing its region
// index — see pmtable.Swizzle.
//
// The destination meter is charged once for the full transfer, modeling a
// single streaming write at device bandwidth.
//
// The clone commits only what it copies: its last chunk is cut to the
// (8-byte rounded) extent instead of the source's full chunk size, so a
// small memtable does not pin a whole chunk of NVM for as long as its
// nodes live. A clone is therefore sealed — Alloc on it fails; lists over
// it only ever re-link the copied nodes.
func (s *Space) Clone(src *Region, meter Meter) *Region {
	dst := s.NewRegion(src.chunkSize, meter)

	src.mu.Lock()
	extent := src.allocOff
	src.mu.Unlock()

	if meter != nil && extent > 0 {
		meter.OnWrite(int(extent))
	}
	srcChunks := *src.chunks.Load()
	chunks := make([][]byte, 0, (extent+src.chunkMask)>>src.chunkShift)
	for off := int64(0); off < extent; off += int64(src.chunkSize) {
		n := extent - off
		if n > int64(src.chunkSize) {
			n = int64(src.chunkSize)
		}
		c := alignedChunk(int((n + 7) &^ 7))
		copy(c, srcChunks[len(chunks)][:n])
		chunks = append(chunks, c)
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
