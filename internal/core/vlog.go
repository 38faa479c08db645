package core

import (
	"math"

	"miodb/internal/keys"
	"miodb/internal/vlog"
)

// Value-log garbage collection (DESIGN.md §14).
//
// A sealed segment whose dead ratio crosses the configured threshold is
// reclaimed in three steps:
//
//  1. Pre-scan: walk the segment's keys under a reader pin and collect
//     the addresses that are still live — the LSM's newest version of
//     their key is a pointer naming exactly this address and no range
//     tombstone covers it. The walk reads no value and skips, without a
//     lookup, entries whose dead mark is proof (vlog.Store.Walk).
//  2. Relocate: for each collected address, under commitMu, recheck
//     liveness (commits are serialized by commitMu, so the recheck
//     cannot be raced), read the entry — this is where its checksum is
//     verified — and re-commit the value through the normal write
//     pipeline: value bytes appended to the active segment, then a WAL
//     pointer record at a fresh sequence number, then the memtable
//     insert. Live readers see the same value throughout; the old
//     address becomes dead.
//  3. Free: once no entry in the segment is live, log a manifest free
//     record (after a crash the segment stays gone — every surviving
//     pointer record for its keys is shadowed by the relocation's newer
//     one) and queue the in-memory free on the version chain. The free
//     runs only when the current version and every older one have
//     drained: any snapshot whose bound predates a relocation pinned an
//     older version, so it keeps resolving the old address against
//     intact segment data until it closes. That is the epoch protection
//     — a pointer can never resolve into a reclaimed segment.
//
// New pointers into a sealed segment cannot appear (appends and
// relocations only target the active segment), so the pre-scan's live
// set can only shrink before step 2's recheck.

// kickValueLogGCLocked asks the value-log GC job for a pass. Compactions
// call it for the drops they reported, while their own job is still busy:
// between a compaction's end and the pass it prompts the store never looks
// idle, so WaitIdle cannot return — nor CrashForTest cut, nor a
// consistency check run — with a pass queued or relocating behind it.
func (db *DB) kickValueLogGCLocked() {
	if db.vlog == nil {
		return
	}
	db.vlogPending = true
	db.bg.Broadcast()
}

// vlogGCPass is one background pass, paced by log growth: it reclaims at
// most one victim per segment created since the previous pass, plus one
// so a backlog always drains — deadest first, PickGC's order. *seen is
// the pacer's only state, the next segment id at the previous pass.
//
// Why paced: dead bytes are only detected when a merge drops a pointer
// node, so a segment crosses GCDeadRatio as early as merges are fast, and
// a collector that takes every candidate at once relocates entries that
// the next few merges would have reported dead. Tying reclamation to the
// rate segments are created keeps the collector from outrunning the
// writer (it frees about as fast as the log grows, counting the segments
// its own relocations fill) while each victim, picked later, is deader.
// An idle log still drains one segment per kick.
func (db *DB) vlogGCPass(seen *uint32) (int, error) {
	next := db.vlog.NextID()
	budget := int(next-*seen) + 1
	*seen = next
	return db.reclaimValueLog(budget)
}

// RunValueLogGC reclaims value-log segments until none qualifies: every
// sealed segment whose dead-space ratio is at or above the configured
// GCDeadRatio has its live values relocated through the write path and
// its memory queued for epoch-deferred release. It returns the number of
// segments reclaimed. Tests, the torture harness and drains call it
// directly for deterministic, complete GC; the background GC job makes paced
// passes instead (vlogGCPass). Safe to call concurrently with reads,
// writes, and snapshots.
func (db *DB) RunValueLogGC() (int, error) {
	if db.vlog == nil {
		return 0, nil
	}
	return db.reclaimValueLog(math.MaxInt)
}

// reclaimValueLog reclaims up to limit qualifying segments, deadest first.
func (db *DB) reclaimValueLog(limit int) (int, error) {
	freed := 0
	for freed < limit && !db.closedFlag.Load() {
		picked, err := db.gcSegment()
		if err != nil {
			return freed, err
		}
		if !picked {
			return freed, nil
		}
		freed++
	}
	return freed, nil
}

// gcSegment picks the deadest qualifying segment, relocates its live
// entries and frees it; it reports false when no segment qualifies.
func (db *DB) gcSegment() (bool, error) {
	// Pick and pre-scan under one reader pin: collect the still-live
	// entries. The pin comes first because collectors run concurrently (the
	// background GC job beside an explicit RunValueLogGC): a segment offered
	// under the pin cannot be freed before the pin is dropped — its free is
	// queued on this version or a later one — so the walk never finds the
	// segment another collector just reclaimed. Keys yielded by Walk alias
	// log storage and the survivors outlive the pin, so copy them; values
	// are read at relocation time.
	var live []liveEntry
	pin := db.acquireVersion()
	id, ok := db.vlog.PickGC()
	if !ok {
		db.releaseVersion(pin)
		return false, nil
	}
	// A transient read fault restarts the walk; relocation reads below,
	// under commitMu, are not retried.
	err := db.runDeviceOp(func() error {
		live = live[:0]
		return db.vlog.Walk(id, func(key []byte, _ uint64, a vlog.Addr) bool {
			if db.vlogEntryLive(pin.v, key, a) {
				live = append(live, liveEntry{key: append([]byte(nil), key...), addr: a})
			}
			return true
		})
	})
	db.releaseVersion(pin)
	if err != nil {
		return false, err
	}

	// Relocate each entry still live under commitMu: commits hold it, so
	// once the recheck finds the entry live nothing can supersede it
	// before the re-commit. The recheck walks tables a finishing merge may
	// retire, so it needs a pin like any reader. The value is copied
	// segment to segment with no pin held: an entry live under commitMu
	// keeps its segment installed, because whichever collector frees the
	// segment must first relocate this entry — under commitMu — or see it
	// dead.
	for _, e := range live {
		if db.closedFlag.Load() {
			return false, nil
		}
		db.commitMu.Lock()
		pin := db.acquireVersion()
		still := db.vlogEntryLive(pin.v, e.key, e.addr)
		db.releaseVersion(pin)
		var err error
		if still {
			var value []byte
			if _, value, _, err = db.vlog.Read(e.addr); err == nil { // verifies the checksum
				one := [1]batchOp{{key: e.key, value: value, kind: keys.KindSet}}
				if _, err = db.commitLocked(one[:], true); err == nil {
					db.vlog.MarkDead(e.addr)
					db.vlog.AddRelocation(int64(len(value)))
				}
			}
		}
		db.commitMu.Unlock()
		if err != nil {
			// Closed, degraded, or a device fault: leave the segment in
			// place — a half-relocated segment is fully consistent (the
			// moved entries are dead, the rest still referenced).
			return false, err
		}
	}

	// Every entry is now dead. Claim the segment — the free stays queued on
	// the version chain for a while, and PickGC must not re-offer it (nor
	// may a concurrent GC runner free it twice).
	if !db.vlog.Condemn(id) {
		return true, nil
	}
	// Make the free durable, then defer the in-memory reclamation onto the
	// version chain (see file comment).
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.bgErr != nil {
		return false, nil
	}
	if err := db.logVlogFreeLocked(id); err != nil {
		db.degradeLocked("vlog free", err)
		return false, err
	}
	segID := id
	db.queueReleaseLocked(func() { db.vlog.Free(segID) })
	return true, nil
}

// liveEntry is a log entry the pre-scan found referenced: its key (a
// private copy) and its address.
type liveEntry struct {
	key  []byte
	addr vlog.Addr
}

// vlogEntryLive reports whether the LSM structure, as seen through v,
// still references the log entry at addr: the newest version of key must
// be a pointer naming exactly addr and not be covered by a range
// tombstone. It probes through newest, the point read's own probe.
func (db *DB) vlogEntryLive(v *version, key []byte, addr vlog.Addr) bool {
	value, seq, kind, ok := db.newest(v, key, keys.MaxSeq)
	if !ok || kind != keys.KindValuePtr {
		return false
	}
	a, ok := vlog.DecodeAddr(value)
	if !ok || a != addr {
		return false
	}
	return !covered(v.rangeDels, key, seq)
}

// onEntryDrop is the compaction drop hook: a merge, absorb, or rebuild
// physically dropped a superseded/covered entry. Pointer entries feed
// the dead marks that steer GC candidate selection and, on segments this
// incarnation created, let the GC walk skip the entry.
func (db *DB) onEntryDrop(value []byte, kind keys.Kind) {
	if kind != keys.KindValuePtr || db.vlog == nil {
		return
	}
	if a, ok := vlog.DecodeAddr(value); ok {
		db.vlog.MarkDead(a)
	}
}

// ValueLogEnabled reports whether key-value separation is active.
func (db *DB) ValueLogEnabled() bool { return db.vlog != nil }

// ValueLogCounters returns the value log's accounting (zero when
// separation is off).
func (db *DB) ValueLogCounters() vlog.Counters {
	if db.vlog == nil {
		return vlog.Counters{}
	}
	return db.vlog.Counters()
}
