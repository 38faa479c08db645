// Epoch-based reclamation for version snapshots — the lock-free read path.
//
// Before this layer existed, every Get/Scan funneled through db.mu twice
// (acquireVersion and releaseVersion), so concurrent readers serialized
// against writers, the flusher, and every per-level compaction thread.
// Taking the write side off db.mu (commits run under their own commitMu)
// let it scale once the global lock stopped being the bottleneck; this
// file does the same for reads.
//
// The scheme is a three-bucket variant of Fraser-style epoch-based
// reclamation, specialized to the store's version chain:
//
//   - The current version is published through an atomic pointer
//     (db.current); installing a new version is a single atomic store.
//   - Readers enter a striped epoch slot: a cache-line-padded per-slot
//     counter array, one slot chosen per acquire from a cheap per-core
//     random source so concurrent readers do not share a contended
//     cacheline. A reader announces the global epoch it observed by
//     incrementing its slot's bucket for that epoch (mod 3), re-validates
//     the epoch, loads the current version, and is pinned: nothing it can
//     reach through the snapshot will be released until it exits.
//   - editVersionLocked (still under db.mu) retires the outgoing version
//     by stamping it with the current epoch and leaving it on the chain —
//     the chain itself is the grace-period list, oldest first.
//   - The global epoch E may advance from e to e+1 only when no reader
//     remains announced in epoch e-1. Hence active readers always span at
//     most epochs {E-1, E}, three buckets suffice, and a version retired
//     at epoch r is unreachable once E ≥ r+2: every reader that could
//     have pinned it entered at some epoch ≤ r and must have exited
//     before E could reach r+2.
//   - The sweep walks the chain from the oldest end and runs each dead
//     version's releaseFns before advancing — exactly the oldest-first
//     ordering the deferred arena/WAL reclamation (lazy memory freeing,
//     §4.4) has always required. A version's garbage may still be
//     referenced through older snapshots, so the sweep stops at the first
//     version whose grace period has not elapsed.
//
// Why the epoch protocol is safe (the two races that matter):
//
// Pin vs retire: a reader validates E == e, then loads db.current. If the
// load returns v, the store that retires v (db.current.Store(nv)) has not
// yet executed, so v's retire stamp r is taken after the reader's
// validation; E is monotone, so r ≥ e. Freeing v requires E ≥ r+2 ≥ e+2,
// and advancing E to e+2 requires bucket e%3 to drain — which the reader
// still occupies. (All accesses are Go atomics, i.e. sequentially
// consistent, so "after" in real time implies visibility.)
//
// Stale announcements: a reader that read E == e, was descheduled, and
// increments bucket e%3 after the epoch moved on fails its re-validation
// and decrements again. The transient count can only delay an epoch
// advance (the check is conservative), never permit one: a bucket gains a
// validated occupant only while the global epoch equals that bucket's
// epoch.
package core

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"miodb/internal/stats"
)

const (
	// epochSlotCount stripes reader announcements. A modest power of two
	// comfortably above typical core counts keeps the birthday-collision
	// rate low without making the advance check's slot scan expensive.
	epochSlotCount = 64

	// notRetired marks a version still installed as current.
	notRetired = ^uint64(0)

	// firstEpoch leaves headroom below so the r+2 grace arithmetic never
	// wraps.
	firstEpoch = 2
)

// epochSlot is one stripe of reader announcements: counts[e%3] holds the
// number of readers currently pinned that entered at epoch e. The padding
// keeps each slot on its own cache line so concurrent readers hashed to
// different slots never bounce a line between cores.
type epochSlot struct {
	counts [3]atomic.Int64
	_      [128 - 3*8]byte
}

// versionPin is a reader's hold on a version snapshot: the version and the
// slot/bucket the reader announced in.
type versionPin struct {
	v      *version
	slot   *epochSlot
	bucket uint32
}

// acquireVersion pins the current version for reading. It touches only
// its striped slot and two atomic loads — never db.mu.
func (db *DB) acquireVersion() versionPin {
	// rand/v2's top-level generator is per-core (runtime cheaprand), so
	// picking the stripe costs a few nanoseconds and no shared state.
	s := &db.epochSlots[rand.Uint32()&(epochSlotCount-1)]
	for {
		e := db.epoch.Load()
		b := uint32(e % 3)
		s.counts[b].Add(1)
		if db.epoch.Load() == e {
			// Announcement validated: the epoch cannot advance past e+1
			// until this pin exits, so the version loaded next outlives
			// the pin (see the package comment for the full argument).
			return versionPin{v: db.current.Load(), slot: s, bucket: b}
		}
		// The epoch moved between the read and the announcement; undo and
		// re-announce in the new epoch.
		s.counts[b].Add(-1)
	}
}

// releaseVersion exits a reader pin: one atomic decrement plus an
// opportunistic (non-blocking) sweep when retired versions are waiting on
// their grace period.
func (db *DB) releaseVersion(p versionPin) {
	p.slot.counts[p.bucket].Add(-1)
	if db.gracePending.Load() > 0 {
		db.trySweep()
	}
}

// bucketEmpty reports whether no reader is announced in bucket b of any
// slot. Transient stale announcements may make this spuriously false —
// which only delays an epoch advance, never corrupts it.
func (db *DB) bucketEmpty(b uint64) bool {
	for i := range db.epochSlots {
		if db.epochSlots[i].counts[b].Load() != 0 {
			return false
		}
	}
	return true
}

// tryAdvanceEpoch advances the global epoch once if no reader remains
// announced in the previous epoch. Between the emptiness check and the
// CAS, no reader can validly enter the checked bucket: a validated entry
// requires the global epoch to equal the bucket's epoch, which it does
// not while the CAS target still holds.
func (db *DB) tryAdvanceEpoch() bool {
	e := db.epoch.Load()
	if !db.bucketEmpty((e + 2) % 3) { // (e-1) mod 3 without underflow
		return false
	}
	return db.epoch.CompareAndSwap(e, e+1)
}

// trySweep is the reader-exit sweep hook: strictly non-blocking, so a
// reader never waits on another sweeper (or on a writer holding sweepMu
// through editVersionLocked).
func (db *DB) trySweep() {
	if !db.sweepMu.TryLock() {
		return
	}
	db.advanceAndSweepLocked()
	db.sweepMu.Unlock()
}

// advanceAndSweepLocked ages the epoch up to twice (a freshly retired
// version needs E ≥ r+2, i.e. two advances when readers are quiescent)
// and frees every version whose grace period has elapsed. Caller holds
// sweepMu.
func (db *DB) advanceAndSweepLocked() {
	if db.gracePending.Load() > 0 {
		db.tryAdvanceEpoch()
		db.tryAdvanceEpoch()
	}
	db.sweepEpochLocked()
}

// sweepEpochLocked frees dead versions from the oldest end of the chain,
// stopping at the first version still inside its grace period (or at the
// current version). Ordering matters: a version's garbage may still be
// referenced through older snapshots, so releases run strictly
// oldest-first — the invariant the WAL/arena releaseFns rely on. Caller
// holds sweepMu; the current pointer is sampled once, which is merely
// conservative if an edit lands concurrently.
func (db *DB) sweepEpochLocked() {
	e := db.epoch.Load()
	cur := db.current.Load()
	for db.oldest != cur {
		r := db.oldest.retireEpoch.Load()
		if r == notRetired || e < r+2 {
			return
		}
		for _, fn := range db.oldest.releaseFns {
			fn()
		}
		db.oldest.releaseFns = nil
		db.oldest = db.oldest.next
		db.gracePending.Add(-1)
		db.st.Add(stats.VersionsSwept, 1)
	}
}

// retireVersionLocked stamps the outgoing version with the current epoch
// and accounts it pending. Callers hold db.mu and have already installed
// the successor (db.current.Store); the stamp is the release point the
// sweeper synchronizes with, so every earlier write to the version
// (releaseFns appends, the next link) is visible once the stamp is.
func (db *DB) retireVersionLocked(cur *version) {
	cur.retireEpoch.Store(db.epoch.Load())
	db.gracePending.Add(1)
}

// readersQuiescent reports whether no reader pin is live in any epoch
// bucket.
func (db *DB) readersQuiescent() bool {
	for b := uint64(0); b < 3; b++ {
		if !db.bucketEmpty(b) {
			return false
		}
	}
	return true
}

// waitReadersDrained blocks until every reader epoch has drained — Close
// calls it after latching the store closed, so its return never races an
// in-flight Get/Scan/iterator. Readers
// re-validate the closed flag right after pinning, so in-flight
// operations exit promptly; a leaked open Iterator blocks Close by
// design (the caller owns its lifetime).
func (db *DB) waitReadersDrained() {
	for i := 0; !db.readersQuiescent(); i++ {
		runtime.Gosched()
		if i > 100 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	// With readers gone the grace period elapses immediately: run the
	// releases so a closed store holds only what the manifest references.
	db.sweepMu.Lock()
	db.advanceAndSweepLocked()
	db.sweepMu.Unlock()
}

// versionChainGauge samples the version chain: live versions (oldest
// through current, inclusive) and releaseFns queued on retired versions
// awaiting their grace period. The current version's own queue is
// excluded — its resources are not pending release, they are live.
func (db *DB) versionChainGauge() (liveVersions int64, pendingReleases int64, epoch uint64) {
	db.sweepMu.Lock()
	defer db.sweepMu.Unlock()
	cur := db.current.Load()
	for v := db.oldest; v != nil; v = v.next {
		liveVersions++
		if v != cur {
			pendingReleases += int64(len(v.releaseFns))
		}
		if v == cur {
			break
		}
	}
	return liveVersions, pendingReleases, db.epoch.Load()
}
