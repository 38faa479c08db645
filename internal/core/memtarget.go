package core

import "miodb/internal/stats"

// Dynamic memtable sizing: the memory governor's per-engine knob.
//
// A DB's active memtable always keeps the capacity it was created with;
// SetMemTableTarget only changes what the *next* memtable is built with
// at the next rotation boundary (makeRoomForWrite, FlushAll, Checkpoint).
// This keeps the resize protocol trivially safe — no arena ever grows or
// shrinks under a concurrent insert — at the cost of one memtable
// of lag between a governor decision and its effect, which is exactly
// the granularity the governor's heat signal (rotations, flushes) moves
// at anyway.

const (
	// minMemTableTarget floors SetMemTableTarget, and withDefaults
	// refuses a configured MemTableSize below it: below one 4 KB page a
	// memtable cannot hold a single typical entry and the store would
	// rotate on every write.
	minMemTableTarget = 4 << 10

	// maxArenaChunks caps the dynamic target at this many arena chunks.
	// ChunkSize is fixed at Open (the WAL, repository, and every arena
	// share it), so a growing target must respect what the fixed chunk
	// size can serve: withDefaults guarantees ChunkSize ≥ MemTableSize/4
	// (see options.go), which makes maxArenaChunks × ChunkSize ≥ the
	// configured MemTableSize for every legal configuration — the
	// governor can always restore at least the static size — while
	// keeping one-piece flushing a handful-of-chunks bulk copy.
	maxArenaChunks = 4
)

// MemTableTargetBounds returns the [min, max] range SetMemTableTarget
// clamps to for this DB's fixed ChunkSize.
func (db *DB) MemTableTargetBounds() (min, max int64) {
	return minMemTableTarget, maxArenaChunks * int64(db.opts.ChunkSize)
}

// SetMemTableTarget sets the capacity of the next memtable, clamped to
// MemTableTargetBounds, and returns the applied value. The change takes
// effect at the next rotation, never mid-arena. Safe for concurrent use;
// a DB that never sees this call behaves byte-for-byte like a static
// MemTableSize configuration.
func (db *DB) SetMemTableTarget(bytes int64) int64 {
	lo, hi := db.MemTableTargetBounds()
	if bytes < lo {
		bytes = lo
	}
	if bytes > hi {
		bytes = hi
	}
	db.memTarget.Store(bytes)
	return bytes
}

// MemTableTarget returns the capacity the next memtable will be built
// with.
func (db *DB) MemTableTarget() int64 { return db.memTarget.Load() }

// Heat samples the write-pressure counters the memory governor polls
// every tick: cumulative user bytes, flush count/bytes, and memtable
// rotations. It is a handful of atomic loads — cheap enough for
// millisecond-scale polling, unlike a full Stats snapshot.
func (db *DB) Heat() stats.Heat { return db.st.Heat() }
