package core

import (
	"sync/atomic"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/pmtable"
	"miodb/internal/wal"
)

// levelEntry is one read source inside an elastic-buffer level: either a
// settled PMTable or an in-flight zero-copy merge (which must be read
// under its seqlock).
type levelEntry interface {
	// get returns the newest version of key with sequence ≤ maxSeq.
	get(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool)
	// mayContain probes the entry's filters for a key hashed with
	// bloom.Hash: false means the key is absent.
	mayContain(h uint64) bool
	iterator() iterx.Iterator
	newestSeq() uint64
}

type tableEntry struct{ t *pmtable.Table }

// get uses the merge-hardened probe: a reader whose version snapshot
// predates a zero-copy merge of this table must still observe the run
// currently in flight between the pair — or, once the merge completed,
// be redirected to the result (whose filter covers the migrated nodes).
func (e tableEntry) get(key []byte, maxSeq uint64) ([]byte, uint64, keys.Kind, bool) {
	return e.t.GetBoundedSafe(key, maxSeq)
}
func (e tableEntry) mayContain(h uint64) bool { return e.t.MayContainSafeHash(h) }

// iterator returns the table's scan source. Always the migration-safe
// iterator: even a table that is settled when the scan starts can enter a
// zero-copy merge mid-scan, and a raw pointer-chasing iterator standing on
// a node the merge migrates would follow the rewritten tower into the
// other list — silently skipping the rest of this one. The safe iterator
// chases pointers only for as long as the table stays settled.
func (e tableEntry) iterator() iterx.Iterator { return e.t.NewSafeIterator() }
func (e tableEntry) newestSeq() uint64        { return e.t.MaxSeq }

type mergeEntry struct{ m *pmtable.Merge }

func (e mergeEntry) get(key []byte, maxSeq uint64) ([]byte, uint64, keys.Kind, bool) {
	return e.m.Get(key, maxSeq)
}
func (e mergeEntry) mayContain(h uint64) bool { return e.m.MayContainHash(h) }

// iterator reads both lists under the merge's seqlock, re-seeking each
// step, and follows the result table once the merge completes mid-scan.
func (e mergeEntry) iterator() iterx.Iterator { return e.m.NewSafeIterator() }
func (e mergeEntry) newestSeq() uint64        { return e.m.New.MaxSeq }

// memHandle pairs a memtable with its write-ahead log.
type memHandle struct {
	mt             *memtable.MemTable
	log            *wal.Log
	minSeq, maxSeq uint64

	// bornSeq is db.seq at handle creation, stamped before publication
	// (immutable afterwards, so readable without the commit lock). Every
	// entry committed into this handle has seq > bornSeq — the race-free
	// lower bound tombstone GC needs (see minSeqAlive).
	bornSeq uint64

	// rangeDels are the range tombstones committed while this handle was
	// the active memtable. They never enter the skip list; they ride here
	// so the flush that retires the handle's WAL can carry them into a
	// manifest record first (durability handoff, like any other entry in
	// the WAL). Appended under commitMu; frozen once the handle rotates
	// into the immutable queue.
	rangeDels []rangeTombstone
}

// version is an immutable snapshot of the store's readable structure.
// Readers pin the current version through the epoch machinery (epoch.go),
// search it without locks, and exit; structural changes install a fresh
// version with one atomic pointer store. Resources that a newer version
// stopped referencing (flushed memtable arenas, retired WAL regions,
// lazily-copied PMTable arenas) are queued on the version that last
// referenced them and freed once that version — and every older one —
// has drained past its reader grace period: the deferred,
// arena-granularity reclamation the paper's lazy memory freeing calls
// for, made safe under lock-free concurrent readers.
type version struct {
	next *version

	// retireEpoch is the global epoch at which this version stopped being
	// current (notRetired while installed). A retired version is dead once
	// the epoch has advanced two past it — no reader pin can still reach
	// it (see epoch.go).
	retireEpoch atomic.Uint64

	mem    *memHandle
	imms   []*memHandle   // newest first
	levels [][]levelEntry // per level, newest first
	repo   *pmtable.Repository

	// rangeDels are the live range tombstones, sorted by seq ascending.
	// The slice is copy-on-write: a registration builds a fresh slice in
	// its version edit, so a pinned version's view is immutable and —
	// because a snapshot's bound covers every tombstone that existed at
	// capture — complete for that snapshot forever.
	rangeDels []rangeTombstone

	// releaseFns run when this version and all older versions are dead.
	// Appended only while the version is current (under db.mu), so a
	// retired version's queue is frozen.
	releaseFns []func()
}

// newRootVersion builds the chain's first version (Open/Recover).
func newRootVersion() *version {
	v := &version{}
	v.retireEpoch.Store(notRetired)
	return v
}

// queueReleaseLocked appends fn to the current version's release queue:
// it runs once that version and every older one have drained past their
// reader grace period. Callers hold db.mu — the current version's queue
// is the only mutable one (a retired version's queue is frozen), and the
// retire stamp in editVersionLocked is the release point the sweeper
// synchronizes with, so the append is always visible before the run.
//
// A queue runs only after its version retires, and a version retires at
// the next edit. Garbage is queued after its own edit (manifest record
// durable first, queue second), so when that edit left the store idle no
// later edit is coming: the version is retired with an empty edit, or the
// arenas a finished lazy copy freed would stay committed for as long as
// the store rests. A background job is still busy here, so its runner
// retires the version when the job ends (runner.go); an explicit
// RunValueLogGC's segment free retires it here.
func (db *DB) queueReleaseLocked(fn func()) {
	cur := db.current.Load()
	cur.releaseFns = append(cur.releaseFns, fn)
	if db.bg.IdleLocked() {
		db.editVersionLocked(func(*version) {})
	}
}

// editVersion clones the current version, applies edit, and installs the
// clone as current with a single atomic store — the only write the
// lock-free read path ever observes. garbage lists resources that the
// new version no longer references; they are queued on the outgoing
// version, which may still be pinned by readers. Must be called with
// db.mu held.
func (db *DB) editVersionLocked(edit func(v *version), garbage ...func()) {
	cur := db.current.Load()
	nv := &version{
		mem:       cur.mem,
		imms:      append([]*memHandle(nil), cur.imms...),
		levels:    make([][]levelEntry, len(cur.levels)),
		repo:      cur.repo,
		rangeDels: cur.rangeDels, // copy-on-write; edits replace the slice
	}
	nv.retireEpoch.Store(notRetired)
	for i := range cur.levels {
		nv.levels[i] = append([]levelEntry(nil), cur.levels[i]...)
	}
	edit(nv)

	// The outgoing version owns the garbage: it may still be read.
	cur.releaseFns = append(cur.releaseFns, garbage...)
	cur.next = nv

	db.current.Store(nv)
	// Retire strictly after the install: a reader that loaded cur pinned
	// it before this stamp, so its entry epoch is ≤ the stamp and the
	// grace period covers it.
	db.retireVersionLocked(cur)
	// Writers sweep synchronously (blocking on sweepMu is fine here —
	// reader-side sweeps are try-lock only) so structural churn can never
	// outrun reclamation even if no reader ever exits.
	db.sweepMu.Lock()
	db.advanceAndSweepLocked()
	db.sweepMu.Unlock()
	db.bg.Broadcast()
}
