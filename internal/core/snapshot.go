package core

import (
	"errors"
	"sync"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/stats"
)

// ErrSnapshotClosed is returned by reads on a closed Snapshot.
var ErrSnapshotClosed = errors.New("miodb: snapshot closed")

// ErrSnapshotUnsupported is returned by Snapshot on SSD-mode stores (the
// compatibility table's SSD row): the on-SSD compactor rewrites tables in
// place with no version pinning, so a long-lived consistent view cannot be
// guaranteed there. The sentinel lives in kvstore so the network client
// can map wire errors back onto the same identity.
var ErrSnapshotUnsupported = kvstore.ErrSnapshotUnsupported

// Snapshot is a long-lived consistent read-only view of the store: every
// read sees exactly the entries committed at capture time, forever, no
// matter how many writes, flushes, zero-copy merges, lazy-copy absorbs,
// or repository compactions happen afterwards.
//
// The mechanism is the store's existing epoch substrate (epoch.go): a
// snapshot holds a version pin, which freezes epoch reclamation — every
// arena, table, and memtable the pinned version references stays mapped
// until the pin is released. On top of the pin, the snapshot carries a
// sequence bound captured under commitMu, so entries newer than the bound
// (which may share skip lists with pinned structures — zero-copy merges
// move nodes, they do not copy them) are filtered out by pure sequence
// comparison on every read path.
//
// Registration feeds the reclamation horizon: while a snapshot with bound
// S is open, no compaction physically drops an entry superseded at a
// sequence number above S (see DB.snapshotHorizon). Close the snapshot —
// and every iterator derived from it — to let reclamation resume. A
// leaked Snapshot blocks DB.Close by design, exactly like a leaked
// Iterator: the caller owns its lifetime.
type Snapshot struct {
	db  *DB
	v   *version
	pin versionPin
	seq uint64 // visibility bound: entries with seq ≤ seq are in the cut

	mu     sync.Mutex
	refs   int // 1 for the handle + 1 per open derived iterator
	closed bool
}

// Snapshot captures a consistent view of the store. The capture runs
// under commitMu — the commit lock — so the bound is exact:
// every commit is either entirely at or below it, or entirely above.
// O(1): no data is copied, no flush is forced.
func (db *DB) Snapshot() (*Snapshot, error) {
	if err := Refusal(OpSnapshot, db.opts, 1, false); err != nil {
		return nil, err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	return db.snapshotLocked()
}

// snapshotLocked captures a snapshot with commitMu held (Snapshot and the
// cross-shard SnapshotAll).
func (db *DB) snapshotLocked() (*Snapshot, error) {
	if db.closedFlag.Load() {
		return nil, ErrClosed
	}
	pin := db.acquireVersion()
	if db.closedFlag.Load() {
		// Close latched between the check and the pin; back out so the
		// reader drain in Close is not held up.
		db.releaseVersion(pin)
		return nil, ErrClosed
	}
	s := &Snapshot{db: db, v: pin.v, pin: pin, seq: db.seq.Load(), refs: 1}
	db.registerSnapshot(s)
	return s, nil
}

// SnapshotView adapts Snapshot to the kvstore capability interface the
// network server probes for.
func (db *DB) SnapshotView() (kvstore.SnapshotView, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SnapshotAll captures one snapshot per store as a single consistent
// cross-store cut: all commit locks are taken (in slice order — callers
// must use a fixed order, e.g. shard index) before any bound is read, so
// a multi-shard write batch is either entirely inside the cut or entirely
// outside, regardless of which shards it touched. Used by the shard
// router; single-store callers want DB.Snapshot.
func SnapshotAll(dbs []*DB) ([]*Snapshot, error) {
	for _, db := range dbs {
		if err := Refusal(OpSnapshot, db.opts, len(dbs), false); err != nil {
			return nil, err
		}
	}
	for _, db := range dbs {
		db.commitMu.Lock()
	}
	defer func() {
		for _, db := range dbs {
			db.commitMu.Unlock()
		}
	}()
	snaps := make([]*Snapshot, len(dbs))
	for i, db := range dbs {
		s, err := db.snapshotLocked()
		if err != nil {
			for _, prev := range snaps[:i] {
				prev.Close()
			}
			return nil, err
		}
		snaps[i] = s
	}
	return snaps, nil
}

// registerSnapshot adds s to the registry and refreshes the horizon.
func (db *DB) registerSnapshot(s *Snapshot) {
	db.snapMu.Lock()
	if db.snaps == nil {
		db.snaps = make(map[*Snapshot]struct{})
	}
	db.snaps[s] = struct{}{}
	db.recomputeHorizonLocked()
	db.snapMu.Unlock()
}

// unregisterSnapshot removes s and refreshes the horizon.
func (db *DB) unregisterSnapshot(s *Snapshot) {
	db.snapMu.Lock()
	delete(db.snaps, s)
	db.recomputeHorizonLocked()
	db.snapMu.Unlock()
}

func (db *DB) recomputeHorizonLocked() {
	if len(db.snaps) == 0 {
		db.snapMin.Store(0) // sentinel: no snapshots, horizon = MaxSeq
		return
	}
	min := keys.MaxSeq
	for s := range db.snaps {
		if s.seq < min {
			min = s.seq
		}
	}
	// A bound of 0 collides with the sentinel, but it can only belong to a
	// snapshot of an empty store — no entry is ever visible to it, so no
	// physical drop can take anything from it.
	db.snapMin.Store(min)
}

// snapshotHorizon returns the lowest bound of any registered snapshot, or
// keys.MaxSeq when none is open. Compactions may physically drop an entry
// superseded at sequence n only when n ≤ horizon: then every registered
// snapshot also sees the superseding entry (n ≤ its bound), and any
// snapshot registered later bounds at or above every committed sequence
// number — a stale (low) read here is always safe, merely conservative.
func (db *DB) snapshotHorizon() uint64 {
	if h := db.snapMin.Load(); h != 0 {
		return h
	}
	return keys.MaxSeq
}

// Seq returns the snapshot's sequence bound (diagnostics and tests).
func (s *Snapshot) Seq() uint64 { return s.seq }

// acquire takes a reference for the duration of one read (or the lifetime
// of one derived iterator), failing once the snapshot is closed.
func (s *Snapshot) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSnapshotClosed
	}
	s.refs++
	return nil
}

// release drops a reference; the last one out unregisters the snapshot
// and releases the version pin, letting reclamation resume.
func (s *Snapshot) release() {
	s.mu.Lock()
	s.refs--
	last := s.refs == 0
	s.mu.Unlock()
	if last {
		s.db.unregisterSnapshot(s)
		s.db.releaseVersion(s.pin)
	}
}

// Close releases the snapshot. Reads in flight finish safely; iterators
// already derived stay valid until their own Close (they hold their own
// reference). Idempotent.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.release() // the handle's own reference
	return nil
}

// Get returns the value key had when the snapshot was captured.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()
	start := time.Now()
	s.db.st.Add(stats.Gets, 1)
	value, err := s.db.getFrom(s.v, key, s.seq)
	s.db.st.RecordOp(stats.OpGet, time.Since(start))
	return value, err
}

// GetMulti reads several keys from the snapshot's cut. Results are
// positional: values[i] / errs[i] answer keys[i] (ErrNotFound per missing
// key). All lookups run against the same pinned version and bound, so the
// reads are mutually consistent by construction.
func (s *Snapshot) GetMulti(getKeys [][]byte) ([][]byte, []error) {
	if err := s.acquire(); err != nil {
		return failAll(len(getKeys), err)
	}
	defer s.release()
	return s.db.getAll(s.v, getKeys, s.seq)
}

// NewIterator returns an iterator over the snapshot's cut. The iterator
// shares the snapshot's version pin through a reference instead of
// holding its own, so it stays valid even if the Snapshot is closed
// first; it must itself be Closed before the store shuts down.
func (s *Snapshot) NewIterator() *Iterator {
	s.db.st.Add(stats.Scans, 1)
	if err := s.acquire(); err != nil {
		return &Iterator{db: s.db, it: iterx.NewMerging(), err: err}
	}
	return &Iterator{
		db:      s.db,
		onClose: s.release,
		it:      s.db.versionIterator(s.v, s.seq),
	}
}

// Scan invokes fn for up to limit keys ≥ start as they existed at
// capture, stopping early if fn returns false. limit ≤ 0 means no limit.
// The slices passed to fn alias store memory and are only valid during
// the callback.
func (s *Snapshot) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	t0 := time.Now()
	it := s.NewIterator()
	defer it.Close()
	err := iterx.Scan(it, start, limit, fn)
	if err != ErrSnapshotClosed {
		s.db.st.RecordOp(stats.OpScan, time.Since(t0))
	}
	return err
}
