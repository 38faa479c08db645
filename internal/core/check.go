package core

import (
	"fmt"

	"miodb/internal/keys"
)

// CheckConsistency validates the store's structural invariants — the
// online fsck used by tests and the verification tooling:
//
//  1. every PMTable's skip list is well-formed (ordering, tower
//     subsequence structure, no cycles);
//  2. entries within a level are newest-first, and every table in level i
//     holds strictly newer sequences than every table below — the
//     invariant the first-hit-wins read path depends on;
//  3. no table's bloom filter yields a false negative for its own keys;
//  4. the repository's list is well-formed and holds no tombstones.
//
// It runs against the current version with the structural lock released
// (tables are immutable once settled), but callers should quiesce the
// store first (WaitIdle) for a meaningful full check.
func (db *DB) CheckConsistency() error {
	pin := db.acquireVersion()
	defer db.releaseVersion(pin)
	v := pin.v

	prevLevelMin := uint64(1) << 62
	for level, entries := range v.levels {
		var levelMin uint64 = 1 << 62
		for i, e := range entries {
			te, ok := e.(tableEntry)
			if !ok {
				return fmt.Errorf("check: level %d entry %d is mid-merge; quiesce first", level, i)
			}
			t := te.t
			if _, err := t.List().CheckInvariants(); err != nil {
				return fmt.Errorf("check: level %d table %d: %w", level, t.ID, err)
			}
			if i > 0 {
				if prev := entries[i-1]; prev.newestSeq() <= t.MaxSeq {
					return fmt.Errorf("check: level %d entries not newest-first at %d", level, i)
				}
			}
			if t.MaxSeq >= prevLevelMin {
				return fmt.Errorf("check: level %d table %d seq [%d,%d] overlaps newer level (min %d)",
					level, t.ID, t.MinSeq, t.MaxSeq, prevLevelMin)
			}
			if t.MinSeq < levelMin {
				levelMin = t.MinSeq
			}
			// Bloom self-coverage.
			it := t.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if !t.MayContain(it.Key()) {
					return fmt.Errorf("check: level %d table %d bloom false negative for %q",
						level, t.ID, it.Key())
				}
			}
		}
		if len(entries) > 0 {
			prevLevelMin = levelMin
		}
	}

	if v.repo != nil {
		if _, err := v.repo.List().CheckInvariants(); err != nil {
			return fmt.Errorf("check: repository: %w", err)
		}
		it := v.repo.NewIterator()
		var lastKey []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if it.Kind() == keys.KindDelete {
				return fmt.Errorf("check: repository holds tombstone for %q", it.Key())
			}
			if lastKey != nil && string(lastKey) == string(it.Key()) {
				return fmt.Errorf("check: repository holds duplicate versions of %q", it.Key())
			}
			lastKey = append(lastKey[:0], it.Key()...)
		}
	}
	return nil
}

// CheckRegionAccounting verifies that every live region in the store's
// address space is reachable from the current version: the superblock,
// the memtable arenas and WAL regions (live + immutable), every
// PMTable's arenas, and the repository. Anything else is a leak — an
// arena some code path allocated and then lost track of, which on real
// NVM would be permanently unreclaimable.
//
// The check first installs a no-op version edit to flush deferred
// releases (releaseFns attached to the current version only run once it
// is superseded and drained), so it must only be called on a quiesced
// store (WaitIdle) with no concurrent readers holding old versions.
func (db *DB) CheckRegionAccounting() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	// The no-op edit retires the current version (freezing its release
	// queue onto the chain) and runs a blocking advance-and-sweep: with no
	// concurrent readers announced, both epoch advances succeed and the
	// whole chain drains synchronously.
	db.editVersionLocked(func(*version) {})
	db.sweepMu.Lock()
	drained := db.oldest == db.current.Load()
	db.sweepMu.Unlock()
	if !drained {
		return fmt.Errorf("check: version chain not drained; quiesce first")
	}
	live, err := db.liveRegionsLocked()
	if err != nil {
		return err
	}
	var leaked []uint32
	for _, r := range db.space.Regions() {
		if !live[r.Index()] {
			leaked = append(leaked, r.Index())
		}
	}
	if len(leaked) > 0 {
		return fmt.Errorf("check: %d region(s) leaked (allocated but unreachable): %v",
			len(leaked), leaked)
	}
	return nil
}

// liveRegionsLocked computes the set of region indexes reachable from the
// current version: the superblock and its current manifest generation,
// the live and immutable memtable arenas plus their WAL regions, every
// settled PMTable's arenas, and the repository. Callers hold db.mu; the
// current version must hold no in-flight merges (its entries must all be
// tableEntry).
func (db *DB) liveRegionsLocked() (map[uint32]bool, error) {
	live := map[uint32]bool{db.manifest.super.Index(): true, db.manifest.gen.Index(): true}
	v := db.current.Load()
	addMem := func(h *memHandle) {
		live[h.mt.Region().Index()] = true
		if h.log != nil {
			live[h.log.Region().Index()] = true
		}
	}
	addMem(v.mem)
	for _, h := range v.imms {
		addMem(h)
	}
	for level, entries := range v.levels {
		for _, e := range entries {
			te, ok := e.(tableEntry)
			if !ok {
				return nil, fmt.Errorf("check: level %d is mid-merge; quiesce first", level)
			}
			for _, r := range te.t.Regions() {
				live[r.Index()] = true
			}
		}
	}
	if v.repo != nil {
		live[v.repo.Region().Index()] = true
	}
	if db.vlog != nil {
		for _, r := range db.vlog.Regions() {
			live[r.Index()] = true
		}
	}
	return live, nil
}

// CompactionStats describes one elastic-buffer level's lifetime work —
// the per-level observability behind Fig 9's thread-scaling analysis.
type CompactionStats struct {
	// Level is the elastic-buffer level index (the last level's entry
	// reports lazy-copy compactions into the repository).
	Level int
	// Merges counts completed compactions initiated at this level.
	Merges int64
	// NodesMoved counts nodes re-linked (zero-copy) or copied (lazy).
	NodesMoved int64
	// GarbageBytes counts superseded-node bytes logically deleted here.
	GarbageBytes int64
}

// CompactionStats returns per-level compaction counters.
func (db *DB) CompactionStats() []CompactionStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]CompactionStats, len(db.levelStats))
	for i := range db.levelStats {
		out[i] = CompactionStats{
			Level:        i,
			Merges:       db.levelStats[i].merges,
			NodesMoved:   db.levelStats[i].nodesMoved,
			GarbageBytes: db.levelStats[i].garbageBytes,
		}
	}
	return out
}
