package core

import (
	"fmt"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/pmtable"
	"miodb/internal/vaddr"
)

// levelNeedsMergeLocked reports whether the level's two oldest entries
// (the tail of the newest-first list) are settled tables: the pair its
// merge job takes next. While that job runs the tail is its merge entry.
func (db *DB) levelNeedsMergeLocked(level int) bool {
	lv := db.current.Load().levels[level]
	if len(lv) < 2 {
		return false
	}
	_, ok1 := lv[len(lv)-1].(tableEntry)
	_, ok2 := lv[len(lv)-2].(tableEntry)
	return ok1 && ok2
}

// mergeOnce zero-copy-merges the two oldest tables of the level and
// installs the result in the level below.
func (db *DB) mergeOnce(level int) error {
	start := time.Now()

	// Pre-gate on the device: the zero-copy merge body is raw pointer
	// migration with no failure seam of its own, so the modeled device
	// either admits the operation here or refuses it before any node
	// has moved.
	if err := db.gateNVMWrite(64); err != nil {
		return fmt.Errorf("device: %w", err)
	}

	// Pick the two oldest settled tables (the tail of the newest-first
	// list) and replace them by a merge entry readers know how to probe.
	db.mu.Lock()
	if !db.levelNeedsMergeLocked(level) {
		db.mu.Unlock()
		return nil
	}
	entries := db.current.Load().levels[level]
	oldE := entries[len(entries)-1].(tableEntry)
	newE := entries[len(entries)-2].(tableEntry)
	m := pmtable.NewMerge(newE.t, oldE.t)
	// Reclamation gates (evaluated by the merge goroutine against live
	// atomics): a superseded version is physically dropped only when every
	// registered snapshot already sees the superseding write, and an entry
	// is dead only when a range tombstone no snapshot can predate covers
	// it. Both default open (horizon = MaxSeq) when no snapshot is live.
	m.Drop = func(newerSeq uint64) bool { return newerSeq <= db.snapshotHorizon() }
	m.Dead = func(key []byte, seq uint64, kind keys.Kind) bool {
		v := db.current.Load()
		if len(v.rangeDels) == 0 {
			return false
		}
		return coveredAt(v.rangeDels, key, seq, db.snapshotHorizon())
	}
	if db.vlog != nil {
		m.OnDrop = db.onEntryDrop
	}
	m.SetPersistSlot(db.manifest.super, db.markSlots[level])
	// Clear any mark a previous merge of this level left behind before
	// the pairing becomes durable: a crash between the mergeStart record
	// and the merge's first own mark write must not resume from a stale
	// address.
	db.manifest.super.Store64(db.markSlots[level], uint64(vaddr.NilAddr))
	// Publish the merge on both tables before any node migrates, so
	// readers holding pre-merge version snapshots switch to the merge's
	// seqlock-validated reads (see pmtable.Table.GetBoundedSafe).
	newE.t.SetActiveMerge(m)
	oldE.t.SetActiveMerge(m)
	db.editVersionLocked(func(v *version) {
		lv := v.levels[level]
		v.levels[level] = append(lv[:len(lv)-2:len(lv)-2], mergeEntry{m})
	})
	if err := db.logMergeStartLocked(level, newE.t.ID, oldE.t.ID); err != nil {
		// Unwind under the same mu hold: no node has migrated, so a
		// reader that pinned the merge version still finds both tables
		// whole through the merge's read protocol.
		db.editVersionLocked(func(v *version) {
			lv := v.levels[level]
			for i, e := range lv {
				if me, ok := e.(mergeEntry); ok && me.m == m {
					rest := append([]levelEntry(nil), lv[:i]...)
					rest = append(rest, newE, oldE)
					rest = append(rest, lv[i+1:]...)
					v.levels[level] = rest
					break
				}
			}
		})
		newE.t.SetActiveMerge(nil)
		oldE.t.SetActiveMerge(nil)
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	db.mu.Unlock()

	var result *pmtable.Table
	var release func()
	if db.opts.DisableZeroCopyMerge {
		var err error
		result, release, err = db.copyMerge(m)
		if err != nil {
			// The pair stays as a (never-started) merge entry: readers
			// probe it correctly through the merge protocol, and the
			// logged mergeStart lets recovery resume it from the cleared
			// mark. The store is about to degrade anyway.
			return fmt.Errorf("copy merge: %w", err)
		}
	} else {
		result = m.Run()
	}

	// Install: drop the merge entry from this level, publish the result
	// as the newest table of the next level (everything arriving from
	// above is newer than the level's current content).
	db.mu.Lock()
	db.editVersionLocked(func(v *version) {
		lv := v.levels[level]
		for i, e := range lv {
			if me, ok := e.(mergeEntry); ok && me.m == m {
				v.levels[level] = append(lv[:i:i], lv[i+1:]...)
				break
			}
		}
		v.levels[level+1] = append([]levelEntry{tableEntry{result}}, v.levels[level+1]...)
	})
	// The merge is over: redirect stale readers (version snapshots that
	// still hold the drained pair) to the result. Raw reads on the pair
	// would be wrong twice over — the Old skeleton's bloom filter does
	// not cover nodes migrated in from the New side (false negatives for
	// keys its list does hold), and the shared list may soon be migrating
	// again under the result's own next merge. The active-merge pointers
	// stay set so no reader can ever observe a drained table as a plain
	// one; Merge.Get and the forward chain both land on the live result.
	m.New.SetForward(result)
	m.Old.SetForward(result)
	// A zero-copy result owns every arena now: sever the skeletons'
	// ownership under mu (manifest snapshots read Regions() under it). A
	// copy merge's sources keep theirs until release frees them below.
	if release == nil {
		m.New.DropRegions()
		m.Old.DropRegions()
	}
	db.levelStats[level].merges++
	db.levelStats[level].nodesMoved += m.Moved()
	db.levelStats[level].garbageBytes += m.Garbage()
	if err := db.logMergeDoneLocked(level, newE.t.ID, oldE.t.ID, tableToState(result)); err != nil {
		// In-memory state is already final and consistent for readers;
		// recovery replays the durable mergeStart and resumes the merge
		// from its persisted mark (an already-drained merge resumes as a
		// no-op). Source arenas were never released, so nothing the
		// recoverable image references is lost.
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	if release != nil {
		// Copy-merge ablation: the source arenas are now unreferenced by
		// the durable manifest; queue them for release once every reader
		// version referencing the pair drains.
		db.queueReleaseLocked(release)
	} else if f := m.New.Filter(); f != nil {
		// The result kept the Old table's filter with the New one's bits
		// ORed in; the drained New filter is free once the readers that
		// probe it through the merge entry have drained.
		db.queueReleaseLocked(func() { db.spares.putFilter(f) })
	}
	// Dropped pointer entries may have pushed a segment past the GC
	// threshold.
	db.kickValueLogGCLocked()
	db.mu.Unlock()

	db.st.AddCompaction(time.Since(start))
	return nil
}

// copyMerge is the non-zero-copy ablation: physically rebuild the pair
// into a fresh arena. The returned release func frees the source arenas;
// the caller must only queue it after the merge is durably logged.
func (db *DB) copyMerge(m *pmtable.Merge) (*pmtable.Table, func(), error) {
	// Gate before building: the merging iterator is stateful, so the
	// build itself must run at most once.
	if err := db.gateNVMWrite(64); err != nil {
		return nil, nil, err
	}
	var merged iterx.Iterator = iterx.NewMerging(m.New.NewIterator(), m.Old.NewIterator())
	// Parity with the zero-copy path's Dead hook: omit range-tombstone
	//-covered entries from the rebuilt table when no registered snapshot
	// could still read them. Pinned versions keep reading the source pair.
	if dels := db.current.Load().rangeDels; len(dels) > 0 {
		horizon := db.snapshotHorizon()
		merged = iterx.NewFiltered(merged, keys.MaxSeq, func(key []byte, seq uint64) bool {
			return coveredAt(dels, key, seq, horizon)
		})
	}
	result, err := pmtable.Build(db.nvm, db.opts.ChunkSize, merged, m.New.ID, db.fp, nil)
	if err != nil {
		return nil, nil, err
	}
	result.MinSeq, result.MaxSeq = m.Old.MinSeq, m.New.MaxSeq
	newT, oldT := m.New, m.Old
	return result, func() {
		newT.ReleaseRegions(db.nvm)
		oldT.ReleaseRegions(db.nvm)
	}, nil
}

// lazyWorkLocked reports whether the bottom buffer level has a settled
// table to absorb.
func (db *DB) lazyWorkLocked(last int) bool {
	entries := db.current.Load().levels[last]
	if len(entries) == 0 {
		return false
	}
	_, ok := entries[len(entries)-1].(tableEntry)
	return ok
}

// lazyOne drains the oldest table t of the last buffer level into the
// repository (in-memory mode) or into L0 SSTables on the SSD (hierarchy
// mode) — the lazy-copy compaction of §4.4 — then releases every arena t
// owned once no reader version references them, and rebuilds the
// repository when garbage dominates it.
func (db *DB) lazyOne(last int, t *pmtable.Table) error {
	start := time.Now()
	db.mu.Lock()
	repo := db.repo
	db.mu.Unlock()
	if repo != nil {
		// Absorb is retry-safe: a re-absorbed node whose (key, seq) is
		// already present is skipped, so a transient mid-absorb failure
		// re-runs without duplicating entries.
		// Skip entries a live range tombstone covers (pinned versions keep
		// reading them through the still-referenced source table), and
		// unlink superseded repository nodes only below the snapshot
		// horizon. Both predicates read live atomics at call time.
		policy := pmtable.AbsorbPolicy{
			Skip: func(key []byte, seq uint64, kind keys.Kind) bool {
				return covered(db.current.Load().rangeDels, key, seq)
			},
			Drop: func(newerSeq uint64) bool { return newerSeq <= db.snapshotHorizon() },
		}
		if db.vlog != nil {
			policy.OnDrop = db.onEntryDrop
		}
		if err := db.runDeviceOp(func() error {
			if out := db.nvm.CheckWrite(64); out.Err != nil {
				return out.Err
			}
			return repo.AbsorbWith(t, policy)
		}); err != nil {
			return fmt.Errorf("absorb: %w", err)
		}
	} else {
		// DRAM-NVM-SSD mode: serialize the PMTable into an L0 SSTable.
		// A fresh iterator per attempt keeps the retry self-contained.
		// Range-tombstone-covered entries never reach the SSD (snapshots
		// are unsupported in this mode, so no horizon gate applies —
		// tombstones themselves stay registered forever for the entries
		// already below).
		if err := db.runDeviceOp(func() error {
			var src iterx.Iterator = t.NewIterator()
			if dead := deadFn(db.current.Load().rangeDels); dead != nil {
				src = iterx.NewFiltered(src, keys.MaxSeq, dead)
			}
			return db.ssd.FlushToL0(src, 0)
		}); err != nil {
			return fmt.Errorf("flush to L0: %w", err)
		}
	}

	db.mu.Lock()
	db.editVersionLocked(func(v *version) {
		lv := v.levels[last]
		for i, e := range lv {
			if te, ok := e.(tableEntry); ok && te.t == t {
				v.levels[last] = append(lv[:i:i], lv[i+1:]...)
				break
			}
		}
	})
	db.levelStats[last].merges++
	db.levelStats[last].nodesMoved += t.Count()
	db.levelStats[last].garbageBytes += t.Garbage()
	if err := db.logLazyDoneLocked(last, t.ID); err != nil {
		// The durable manifest still lists the table in its level; its
		// arenas must survive for recovery (re-absorbing on recovery is
		// harmless — see Absorb's idempotence). Leak rather than lose.
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	rebuild := db.repoRebuildDueLocked()
	// The paper's lazy memory freeing: every arena the absorbed table
	// accumulated across its zero-copy merges is returned at once, after
	// the last reader drains — and only now that the absorption is
	// durably logged. Its filter goes to the free list for a memtable.
	db.queueReleaseLocked(func() {
		t.ReleaseRegions(db.nvm)
		db.spares.putFilter(t.Filter())
	})
	if rebuild == nil {
		db.kickValueLogGCLocked() // else compactRepo kicks, after its own drops
	}
	db.mu.Unlock()

	if rebuild != nil {
		if err := db.compactRepo(rebuild); err != nil {
			return err
		}
	}
	db.st.AddCompaction(time.Since(start))
	return nil
}

// repoRebuildDueLocked returns the repository when superseded nodes
// dominate it (nil otherwise): rebuilding then bounds the NVM footprint of
// update-heavy workloads, and triggering only when garbage exceeds 2× live
// data keeps the amortized extra write traffic below 0.5× of the updates
// that created the garbage. Only the lazy-copy job rebuilds, so no two
// rebuilds overlap, and its busy bit keeps the store from looking idle
// until the rebuild is done.
func (db *DB) repoRebuildDueLocked() *pmtable.Repository {
	repo := db.repo
	if repo == nil {
		return nil
	}
	garbage, live := repo.GarbageBytes(), repo.UserBytes()
	if garbage < 4*db.opts.MemTableSize || garbage < 2*live {
		return nil
	}
	return repo
}

// compactRepo rebuilds repo without its garbage and swaps the result in.
func (db *DB) compactRepo(repo *pmtable.Repository) error {
	// Capture the tombstone set before rebuilding: the fresh repository
	// applies exactly these (registration is seq-ordered, so the captured
	// slice is the complete prefix up to its last seq — the basis for the
	// repoAppliedSeq bound below). The fresh object has no readers yet, so
	// coverage applies unconditionally — no horizon gate: pinned snapshots
	// keep the old repository object, and later snapshots bound at or
	// above every captured tombstone.
	dels := db.current.Load().rangeDels
	var dead func(key []byte, seq uint64, kind keys.Kind) bool
	if len(dels) > 0 {
		dead = func(key []byte, seq uint64, kind keys.Kind) bool {
			return covered(dels, key, seq)
		}
	}

	// Gate before rebuilding (retry-safe); the rebuild itself runs at
	// most once so a transient fault cannot leak half-built arenas.
	var fresh *pmtable.Repository
	var onDrop func(value []byte, kind keys.Kind)
	if db.vlog != nil {
		onDrop = db.onEntryDrop
	}
	err := db.gateNVMWrite(64)
	if err == nil {
		fresh, err = repo.CompactedWith(db.opts.ChunkSize, dead, onDrop)
	}
	if err != nil {
		return fmt.Errorf("repo compact: %w", err)
	}

	db.mu.Lock()
	old := db.repo
	db.repo = fresh
	db.editVersionLocked(func(v *version) {
		v.repo = fresh
	})
	if err := db.logRepoSwapLocked(fresh.Region().Index(), uint64(fresh.Head())); err != nil {
		// The durable manifest still points at the old repository; it
		// must never be released (reads go through the fresh one, which
		// holds the same live content).
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	db.queueReleaseLocked(func() {
		old.Release()
	})
	if len(dels) > 0 && dels[len(dels)-1].seq > db.repoAppliedSeq {
		db.repoAppliedSeq = dels[len(dels)-1].seq
	}
	if err := db.gcRangeTombstonesLocked(); err != nil {
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	db.kickValueLogGCLocked()
	db.mu.Unlock()
	return nil
}
