package core

import (
	"sync"

	"miodb/internal/bloom"
	"miodb/internal/vaddr"
)

// maxSpares bounds each free list. A store under a sustained fill holds up
// to 16 immutable memtables awaiting flush, and the lists refill only as
// their flushes' grace periods end, so a smaller bound leaves about half
// the rotations without a spare arena.
const maxSpares = 16

// spares holds what retired memtables and tables give back for the next
// memtable: DRAM arena chunks, WAL chunks and bloom filters. Only release
// functions fill it, so nothing reaches a list before the epoch grace
// period of the structure that held it has ended, and no reader can still
// hold what newMemHandle takes. Release functions run from grace-period
// sweeps (under sweepMu, with or without db.mu) and newMemHandle from a
// rotation, so the lists have a lock of their own, taken last.
type spares struct {
	mu      sync.Mutex
	arenas  []vaddr.Spare
	logs    []vaddr.Spare
	filters []*bloom.Filter
	// chunksReused and filtersReused count what memtables took.
	chunksReused, filtersReused int64
}

// putArena adds a recycled memtable arena's chunk (nvm.Device.Recycle's
// results) unless the list is full.
func (s *spares) putArena(sp vaddr.Spare, ok bool) { s.putChunk(&s.arenas, sp, ok) }

// putLog is putArena for a WAL region's chunk.
func (s *spares) putLog(sp vaddr.Spare, ok bool) { s.putChunk(&s.logs, sp, ok) }

func (s *spares) putChunk(list *[]vaddr.Spare, sp vaddr.Spare, ok bool) {
	s.mu.Lock()
	if ok && len(*list) < maxSpares {
		*list = append(*list, sp)
	}
	s.mu.Unlock()
}

// putFilter adds a filter no table holds any more unless the list is full.
func (s *spares) putFilter(f *bloom.Filter) {
	s.mu.Lock()
	if f != nil && len(s.filters) < maxSpares {
		s.filters = append(s.filters, f)
	}
	s.mu.Unlock()
}

// take returns an arena chunk and a log chunk that fit a region of
// chunkSize and grain, and a filter; a zero Spare or a nil filter where a
// list has none. Chunks of another shape (a memtable target changed since
// they were released) are dropped on the way. Every filter of a store is
// made with its one FilterParams, so a filter always fits; it comes back
// reset, before its memtable can publish it.
func (s *spares) take(chunkSize, grain int) (arena, log vaddr.Spare, filter *bloom.Filter) {
	s.mu.Lock()
	arena = s.takeChunkLocked(&s.arenas, chunkSize, grain)
	log = s.takeChunkLocked(&s.logs, chunkSize, grain)
	if n := len(s.filters); n > 0 {
		filter = s.filters[n-1]
		s.filters[n-1] = nil
		s.filters = s.filters[:n-1]
		s.filtersReused++
	}
	s.mu.Unlock()
	if filter != nil {
		filter.Reset()
	}
	return arena, log, filter
}

// takeChunkLocked pops list's newest chunk that fits, dropping the ones
// above it that do not. Caller holds s.mu.
func (s *spares) takeChunkLocked(list *[]vaddr.Spare, chunkSize, grain int) vaddr.Spare {
	l := *list
	for len(l) > 0 {
		sp := l[len(l)-1]
		l[len(l)-1] = vaddr.Spare{}
		l = l[:len(l)-1]
		if sp.Fits(chunkSize, grain) {
			*list = l
			s.chunksReused++
			return sp
		}
	}
	*list = l
	return vaddr.Spare{}
}
