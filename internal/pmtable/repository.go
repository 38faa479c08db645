package pmtable

import (
	"bytes"
	"sync"

	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// Repository is the data repository at the bottom of MioDB (Ln): one huge
// persistent skip list holding all unique, sorted KV pairs. Tables from
// L(n-1) are folded in by lazy-copy compaction (§4.4): unlike zero-copy
// merges, the newest version of each key is physically copied into the
// repository's own arena — the only data movement in the whole in-memory
// LSM pipeline, bounding write amplification at WAL + flush + lazy copy
// ≈ 3×.
//
// After an Absorb, every arena of the consumed table is garbage: the
// engine releases them wholesale once no reader version references them
// (the paper's lazy memory freeing).
type Repository struct {
	dev    *nvm.Device
	region *vaddr.Region

	mu   sync.Mutex // serializes absorbs (single writer)
	list *skiplist.List

	garbage int64 // bytes of unlinked (superseded) repository nodes
}

// NewRepository creates an empty repository on the NVM device.
func NewRepository(dev *nvm.Device, chunkSize int) (*Repository, error) {
	region := dev.NewRegion(chunkSize)
	list, err := skiplist.New(region)
	if err != nil {
		return nil, err
	}
	return &Repository{dev: dev, region: region, list: list}, nil
}

// AttachRepository rebuilds a repository view over an existing arena and
// list head (recovery path).
func AttachRepository(dev *nvm.Device, region *vaddr.Region, head vaddr.Addr) *Repository {
	list := skiplist.Attach(dev.Space(), head, region)
	count := int64(0)
	bytesIn := int64(0)
	it := list.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		count++
		bytesIn += int64(len(it.Key()) + len(it.Value()))
	}
	list.SetCount(count)
	list.AddUserBytes(bytesIn)
	return &Repository{dev: dev, region: region, list: list}
}

// Head returns the repository list's head address (persisted in the
// superblock).
func (r *Repository) Head() vaddr.Addr { return r.list.Head() }

// Region returns the repository's arena.
func (r *Repository) Region() *vaddr.Region { return r.region }

// Get returns the value for key, if present.
func (r *Repository) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	return r.list.Get(key)
}

// GetBounded returns the newest version of key with sequence ≤ maxSeq.
// The repository is normally single-version per key, but snapshot-gated
// absorbs retain superseded versions (and land tombstone nodes), so a
// bounded probe may legitimately see past the newest entry.
func (r *Repository) GetBounded(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	return r.list.GetBounded(key, maxSeq)
}

// Count returns the number of unique keys stored.
func (r *Repository) Count() int64 { return r.list.Count() }

// UserBytes returns live key+value payload bytes.
func (r *Repository) UserBytes() int64 { return r.list.UserBytes() }

// GarbageBytes returns bytes of superseded nodes awaiting compaction.
func (r *Repository) GarbageBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.garbage
}

// NewIterator iterates the repository in key order.
func (r *Repository) NewIterator() *skiplist.Iterator { return r.list.NewIterator() }

// List exposes the underlying skip list (diagnostics and invariant checks).
func (r *Repository) List() *skiplist.List { return r.list }

// Absorb lazy-copy-compacts one L(n-1) table into the repository:
//
//  1. walk the table in (key asc, seq desc) order; only the first — i.e.
//     newest — version of each key is considered, the rest are garbage;
//  2. a tombstone deletes the repository's version outright (the bottom
//     level retains no tombstones);
//  3. a value is physically copied into the repository arena, inserted at
//     its key position, and any superseded repository node is unlinked in
//     place ("we traverse the data repository from the insertion position
//     and delete older nodes directly").
//
// Readers stay lock-free throughout: inserts publish bottom-up, unlinks
// never touch the removed node's own towers.
//
// The caller must absorb tables oldest-first (ascending ID); a defensive
// sequence check makes a misordered absorb a no-op per key rather than a
// corruption.
func (r *Repository) Absorb(t *Table) error {
	return r.AbsorbWith(t, AbsorbPolicy{})
}

// AbsorbPolicy parameterizes an absorb for snapshots and range deletes.
// The zero value reproduces Absorb's unconditional behavior.
type AbsorbPolicy struct {
	// Skip reports that a table entry is covered by a range tombstone and
	// must not be copied in. Skipped entries stay readable to pinned
	// version snapshots through the (still-referenced) source table;
	// repository entries they would have superseded are hidden by the
	// read path's tombstone filter until a repository compaction drops
	// them physically.
	Skip func(key []byte, seq uint64, kind keys.Kind) bool
	// Drop gates in-place unlinking of a repository node superseded at
	// newerSeq, exactly like Merge.Drop: false retains the old node for
	// snapshot readers (and lands point tombstones as repository nodes
	// instead of applying them). nil = always drop.
	Drop func(newerSeq uint64) bool
	// OnDrop, when non-nil, observes every entry the absorb physically
	// drops — table entries not copied in (superseded, skipped, shadowed)
	// and repository nodes unlinked in place. Feeds value-log dead-space
	// accounting.
	OnDrop func(value []byte, kind keys.Kind)
}

func (p AbsorbPolicy) onDrop(value []byte, kind keys.Kind) {
	if p.OnDrop != nil {
		p.OnDrop(value, kind)
	}
}

func (p AbsorbPolicy) canDrop(newerSeq uint64) bool {
	return p.Drop == nil || p.Drop(newerSeq)
}

// AbsorbWith is Absorb under a policy: dead entries are skipped, and
// in-place deletions of superseded repository nodes are gated so pinned
// snapshots keep their versions reachable. When a deletion is blocked the
// repository temporarily holds several versions of a key (newest first,
// like any other list here); point reads take the newest, bounded reads
// seek their version, and the next repository compaction squeezes the
// retained garbage out.
func (r *Repository) AbsorbWith(t *Table, p AbsorbPolicy) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	d := absorbDrain{repo: r, policy: p}
	w := &d.w
	defer w.Done()
	for n := t.list.First(w); !n.IsNil(); n = t.list.Next(w, n) {
		// One settlement per table entry: what the last one did to the
		// repository and the step onto this one.
		w.Done()
		if err := d.step(n); err != nil {
			return err
		}
	}
	return nil
}

// absorbDrain is what an absorb carries from one table entry to the next.
type absorbDrain struct {
	repo   *Repository
	policy AbsorbPolicy

	// The key of the last entry considered: the table is multi-version,
	// and only the first — newest — version of a key is absorbed.
	lastKey   []byte
	lastValid bool

	// splice is the repository position of the last key searched for, kept
	// as the finger for the next one exactly as a merge keeps its oldtable
	// splice (Merge.step): the table drains in key order, so every target
	// (key, MaxSeq) lies past the last; a node the absorb inserts becomes
	// the splice entry at its own levels; and the only nodes it unlinks —
	// the repository's versions of the key in hand, superseded or deleted
	// — are successors of the splice, never an entry of it. Zero until the
	// first search, which AdvanceSplice then makes from the head.
	splice [skiplist.MaxHeight]skiplist.Node

	// w tallies one entry's device accesses, table and repository side.
	w skiplist.Walk
}

// step absorbs one table entry.
func (d *absorbDrain) step(n skiplist.Node) error {
	r, p, w := d.repo, d.policy, &d.w
	key, seq, kind := w.Key(n), n.Seq(), n.Kind()
	if d.lastValid && bytes.Equal(key, d.lastKey) {
		p.onDrop(w.Value(n), kind)
		return nil // older version within the same table
	}
	d.lastKey = append(d.lastKey[:0], key...)
	d.lastValid = true
	if p.Skip != nil && p.Skip(key, seq, kind) {
		p.onDrop(w.Value(n), kind)
		return nil // covered by a range tombstone
	}

	// One search serves the lookup and the insert: the successor of
	// (key, MaxSeq) is the repository's newest version of key, and once
	// that is known to be older than the entry (the check below), no node
	// orders between (key, MaxSeq) and (key, seq) — the splice of the one
	// position is the splice of the other.
	existing := r.list.AdvanceSplice(w, key, keys.MaxSeq, &d.splice)
	hasExisting := !existing.IsNil() && bytes.Equal(w.Key(existing), key)
	if hasExisting && existing.Seq() >= seq {
		p.onDrop(w.Value(n), kind)
		return nil // repository already newer (defensive)
	}
	if kind == keys.KindDelete {
		if !hasExisting {
			return nil // nothing below to shadow: tombstone is spent
		}
		if p.canDrop(seq) {
			// Every version of the key goes; each is the splice's
			// successor in turn.
			d.unlinkVersions(key)
			return nil
		}
		// A snapshot still reads the shadowed version: retain it and
		// land the tombstone as a repository node above it. finishGet
		// hides it from point reads; compaction clears both later.
		if _, err := r.list.InsertEntryWithSplice(w, key, nil, seq, keys.KindDelete, &d.splice); err != nil {
			return err
		}
		return nil
	}
	value := w.Value(n)
	if _, err := r.list.InsertEntryWithSplice(w, key, value, seq, kind, &d.splice); err != nil {
		return err
	}
	if p.canDrop(seq) {
		d.unlinkVersions(key)
	}
	return nil
}

// unlinkVersions unlinks the run of versions of key directly behind the
// splice — behind the node just inserted, which is its level-0 entry, or
// from the key's newest version on when a tombstone applies — with the
// carried splice: no search.
func (d *absorbDrain) unlinkVersions(key []byte) {
	r, w := d.repo, &d.w
	for {
		succ := r.list.Next(w, d.splice[0])
		if succ.IsNil() || !bytes.Equal(w.Key(succ), key) {
			return
		}
		r.list.RemoveWithSplice(w, succ, &d.splice)
		r.garbage += succ.Size()
		d.policy.onDrop(w.Value(succ), succ.Kind())
	}
}

// Release frees the repository arena (store shutdown).
func (r *Repository) Release() { r.dev.Release(r.region) }

// Compacted builds a fresh repository holding only the live nodes,
// dropping the garbage left by superseded insert/unlink updates. The
// engine swaps it in for the old repository and releases the old arena
// wholesale once readers drain — the repository-level counterpart of the
// paper's lazy memory freeing, bounding NVM footprint under update-heavy
// workloads. The copy traffic is charged to the device like any other
// write (it is real write amplification, amortized by triggering only
// when garbage exceeds a multiple of live data).
func (r *Repository) Compacted(chunkSize int) (*Repository, error) {
	return r.CompactedWith(chunkSize, nil, nil)
}

// CompactedWith is Compacted with a deadness predicate and a drop
// observer (both optional). The fresh repository is a brand-new object no
// existing reader references, so it can clean unconditionally: only the
// newest version of each key is copied, point tombstones are dropped
// (nothing below the bottom level to shadow), and keys whose newest
// version dead reports (range-tombstone covered) are omitted entirely —
// along with their older versions, which any covering tombstone
// necessarily also covers. Pinned snapshots keep reading the old
// repository object until their versions retire. onDrop observes every
// entry not carried into the fresh repository (value-log dead-space
// accounting).
func (r *Repository) CompactedWith(chunkSize int, dead func(key []byte, seq uint64, kind keys.Kind) bool, onDrop func(value []byte, kind keys.Kind)) (*Repository, error) {
	nr, err := NewRepository(r.dev, chunkSize)
	if err != nil {
		return nil, err
	}
	drop := func(value []byte, kind keys.Kind) {
		if onDrop != nil {
			onDrop(value, kind)
		}
	}
	// The fresh list is built by appending a sorted stream: the splice of
	// each insert, moved past the new node, is one step from the next.
	var lastKey []byte
	lastValid := false
	var splice [skiplist.MaxHeight]skiplist.Node
	var w skiplist.Walk
	defer w.Done()
	for n := r.list.First(&w); !n.IsNil(); n = r.list.Next(&w, n) {
		w.Done() // once per entry
		key, seq, kind := w.Key(n), n.Seq(), n.Kind()
		if lastValid && bytes.Equal(key, lastKey) {
			drop(w.Value(n), kind)
			continue // superseded version retained for a snapshot
		}
		lastKey = append(lastKey[:0], key...)
		lastValid = true
		if kind == keys.KindDelete {
			continue
		}
		if dead != nil && dead(key, seq, kind) {
			drop(w.Value(n), kind)
			continue
		}
		nr.list.AdvanceSplice(&w, key, seq, &splice)
		if _, err := nr.list.InsertEntryWithSplice(&w, key, w.Value(n), seq, kind, &splice); err != nil {
			return nil, err
		}
	}
	return nr, nil
}
