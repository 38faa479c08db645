package pmtable

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"miodb/internal/keys"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// Merge is one in-flight zero-copy compaction of two PMTables (§4.3): the
// newer table ("newtable") is drained node by node into the older table
// ("oldtable") purely by rewriting skip-list pointers with 8-byte atomic
// stores. No key or value bytes move, so the only write traffic — and the
// only write amplification — is pointer words.
//
// Concurrent reads. While a merge runs, the level exposes the Merge itself
// as the read source for the pair. A point lookup must observe every node
// no matter where it currently lives, including the single node in flight
// between the two lists. The paper's protocol (query newtable → insertion
// mark → oldtable) closes the two races it describes in §4.3, but a third
// interleaving remains: a reader that entered the newtable through a stale
// head pointer can be carried into the oldtable when the in-flight node's
// towers are rewritten, silently skipping the newtable's remaining nodes.
// We therefore strengthen the protocol with a seqlock: the merger brackets
// each node migration with an odd/even position counter, and a reader
// retries its (newtable, mark, oldtable) probe until it completes within a
// stable window, falling back to the merge mutex under persistent
// contention. The common case is uncontended and lock-free, preserving the
// paper's design intent; the difference is documented here for fidelity.
//
// Crash consistency (§4.7). Each step persists the address of the node
// about to leave the newtable to an NVM slot before unlinking it, and Run
// clears the slot once, after the last step. The slot therefore names
// either the node in flight or the last node finished (nil before the
// first step and after the drain); Resume redoes the node it names, which
// is idempotent in both cases, and continues the drain.
type Merge struct {
	// New is the newer table being drained; Old receives its nodes and
	// becomes the merged result. Every sequence number in New exceeds
	// every one in Old (tables within a level hold disjoint, time-ordered
	// sequence ranges).
	New, Old *Table

	// Drop gates physical deletion of a version superseded by a newer one
	// committed at newerSeq. The engine returns false while a registered
	// snapshot's bound is below newerSeq — that snapshot still reads the
	// older version — and the merge then retains the duplicate (the skip
	// list is multi-version: point reads take the newest, scans dedup).
	// nil means always drop, the pre-snapshot behavior. Set before Run.
	Drop func(newerSeq uint64) bool

	// Dead reports that an entry is covered by a range tombstone no live
	// snapshot can see past, so the merge drops it instead of migrating
	// it. nil means migrate everything. Set before Run.
	Dead func(key []byte, seq uint64, kind keys.Kind) bool

	// OnDrop, when non-nil, observes every entry the merge physically
	// drops (its value bytes and kind). The engine feeds value-log
	// dead-space accounting with it. Invoked outside the locked migration
	// windows; dropped nodes stay readable until their arena is released,
	// so the slice is valid for the call. Set before Run.
	OnDrop func(value []byte, kind keys.Kind)

	pos  atomic.Uint64 // seqlock; odd while a node migrates
	mu   sync.Mutex    // merger holds per migration; reader fallback path
	mark atomic.Uint64 // vaddr.Addr of the in-flight node (0 = none)

	// Optional persistence of the mark for crash recovery: the slot's
	// region (for its meter) and the slot itself, resolved once. Unlike
	// mark, the slot is not cleared when a step ends, only when Run does.
	markRegion *vaddr.Region
	markSlot   vaddr.Span

	garbage int64 // bytes of duplicate nodes logically deleted
	moved   int64 // nodes migrated
	done    atomic.Bool
	result  *Table
}

// NewMerge pairs two tables of one level for zero-copy compaction.
// newT must be the newer table (larger ID).
func NewMerge(newT, oldT *Table) *Merge {
	if newT.ID < oldT.ID {
		panic("pmtable: merge pair ordered backwards")
	}
	return &Merge{New: newT, Old: oldT}
}

// SetPersistSlot directs the merge to persist its insertion mark into the
// given 8-byte NVM slot, enabling crash recovery of an interrupted merge.
func (m *Merge) SetPersistSlot(region *vaddr.Region, slot vaddr.Addr) {
	m.markRegion = region
	m.markSlot = region.Span(slot)
}

// persistMark stores a to the mark slot, if the merge has one; the store
// is counted on w like any other of the step.
func (m *Merge) persistMark(w *skiplist.Walk, a vaddr.Addr) {
	if m.markRegion != nil {
		w.Store64(m.markRegion, m.markSlot, uint64(a))
	}
}

// drain is what the merger carries from one step to the next.
type drain struct {
	// The last node migrated (not dropped): the version that supersedes
	// the next node if their user keys match.
	lastKey   []byte
	lastSeq   uint64
	lastValid bool

	// splice is the oldtable insertion position of the last node migrated,
	// kept as the finger for the next one: the newtable drains in sorted
	// order, so each target lies at or just past it. It lives only in the
	// merger's memory — Run (and therefore Resume, after its repair) always
	// starts cold, from the zero splice: one full search from the head.
	splice [skiplist.MaxHeight]skiplist.Node

	// w tallies a step's device accesses — the splice search, the mark and
	// link stores, the duplicate checks — and settles them once, when the
	// step ends.
	w skiplist.Walk
}

// Run drains the newtable into the oldtable and returns the merged table.
// It must be called exactly once, from the level's compaction goroutine.
func (m *Merge) Run() *Table { return m.run(&drain{}) }

// run drains from d's state, clears the persisted mark once the newtable is
// empty — outside every seqlock window, settled on the drain's walk — and
// publishes the result.
func (m *Merge) run(d *drain) *Table {
	for m.step(d) {
	}
	m.persistMark(&d.w, vaddr.NilAddr)
	d.w.Done()
	return m.finish()
}

// canDrop applies the snapshot gate to a superseded-version deletion.
func (m *Merge) canDrop(newerSeq uint64) bool {
	return m.Drop == nil || m.Drop(newerSeq)
}

// step migrates one node; it reports false when the newtable is empty.
//
// The expensive part of a migration — the oldtable splice search, metered
// NVM reads — runs *outside* the locked, seqlock-odd windows: only this
// merger mutates the two lists, so a splice computed between windows stays
// valid. The locked windows contain nothing but pointer stores, keeping
// reader fallback waits to a microsecond — the paper's lock-free spirit
// with the seqlock safety net. Not even the device is visited inside them:
// the step's loads and stores are tallied (d.w) and settled once, after
// the last window closes — the device's counters are a cache line the
// foreground writes too, and under Simulate a charge may wait.
//
// The search itself is a finger search (skiplist.AdvanceSplice): the
// splice of the previous migration is advanced to this node's position
// instead of descending from the oldtable's head again. What keeps the
// carried splice valid between steps: targets strictly ascend (the
// newtable is drained from its head); a migrated node becomes the splice
// entry at its own levels; and the only nodes this merger ever unlinks
// from the oldtable — superseded versions directly behind the node just
// migrated — order after every splice entry, so no entry is ever
// unlinked. Dropped nodes never touch the oldtable at all.
func (m *Merge) step(d *drain) bool {
	w := &d.w
	defer w.Done()
	newL, oldL := m.New.list, m.Old.list
	n := newL.First(w)
	if n.IsNil() {
		return false
	}
	key := w.Key(n)
	// An older version of the key just migrated is droppable (the paper's
	// N_d5 case) unless a snapshot still pins it; an entry covered by a
	// settled range tombstone is droppable outright. A dup the snapshot
	// gate refuses to drop is migrated as a retained duplicate instead.
	dup := d.lastValid && bytes.Equal(key, d.lastKey)
	drop := (dup && m.canDrop(d.lastSeq)) ||
		(m.Dead != nil && m.Dead(key, n.Seq(), n.Kind()))

	// Phase 0 (unlocked): bring the oldtable splice to n's position.
	if !drop {
		oldL.AdvanceSplice(w, key, n.Seq(), &d.splice)
	}

	// Phase 1 (locked, pos odd): the migration itself — mark, unlink
	// from the newtable, relink into the oldtable. Pointer stores only.
	m.mu.Lock()
	m.pos.Add(1)
	// 1. Record the node in the insertion mark (persisted first, §4.3),
	//    so it stays visible while belonging to neither list. The slot
	//    keeps naming n after the window; the next step overwrites it.
	m.mark.Store(uint64(n.Addr()))
	m.persistMark(w, n.Addr())
	// 2. Remove it from the newtable: atomic head-pointer stores.
	newL.RemoveFirst(w)
	if drop {
		// Logically delete the node. Its bytes are reclaimed with the
		// arena after lazy-copy compaction.
		m.garbage += n.Size()
	} else {
		// 3. Insert into the oldtable at its (key, seq) position; the
		//    splice moves past n.
		oldL.InsertNodeWithSplice(w, n, &d.splice)
		m.moved++
	}
	m.mark.Store(uint64(vaddr.NilAddr))
	m.pos.Add(1)
	m.mu.Unlock()

	if drop {
		if m.OnDrop != nil {
			m.OnDrop(w.Value(n), n.Kind())
		}
		// The last-migrated record deliberately stays: a dropped node was
		// not migrated, so it cannot be the superseding version for the
		// next node's dup decision.
		return true
	}

	// Phase 2: unlink superseded versions now directly behind n (the
	// N_d4/N_d3 case) in a short locked window each. No search: a
	// successor directly follows n, so at every level its predecessor is
	// the splice entry (n itself below n's height, n's own predecessor
	// above). The snapshot gate applies: successors superseded at n.Seq()
	// stay put while a snapshot's bound is below it.
	for m.canDrop(n.Seq()) {
		succ := oldL.Next(w, n)
		if succ.IsNil() || !bytes.Equal(w.Key(succ), key) {
			break
		}
		m.mu.Lock()
		m.pos.Add(1)
		oldL.RemoveWithSplice(w, succ, &d.splice)
		m.garbage += succ.Size()
		m.pos.Add(1)
		m.mu.Unlock()
		if m.OnDrop != nil {
			m.OnDrop(w.Value(succ), succ.Kind())
		}
	}
	d.lastKey = append(d.lastKey[:0], key...)
	d.lastSeq = n.Seq()
	d.lastValid = true
	return true
}

// finish publishes the merged table. Its filter is the Old table's, with
// the New table's bits ORed in place: the result shares the Old list, and
// now its filter too, so readers still probing the Old skeleton see a
// superset of its keys, never a false negative.
func (m *Merge) finish() *Table {
	if m.Old.filter != nil {
		// Same-parameter filters by construction; Merge cannot fail.
		if err := m.Old.filter.Merge(m.New.filter); err != nil {
			panic(err)
		}
	}
	regions := make([]*vaddr.Region, 0, len(m.Old.regions)+len(m.New.regions))
	regions = append(regions, m.Old.regions...)
	regions = append(regions, m.New.regions...)

	result := &Table{
		ID:      m.New.ID,
		list:    m.Old.list,
		filter:  m.Old.filter,
		regions: regions,
		MinSeq:  m.Old.MinSeq,
		MaxSeq:  m.New.MaxSeq,
	}
	result.garbage.Store(m.Old.garbage.Load() + m.New.garbage.Load() + m.garbage)
	// Ownership of every arena moves to the result. The drained source
	// skeletons keep their region slices until the engine drops them
	// under its structural lock (DropRegions) — clearing them here would
	// race with a concurrent manifest snapshot reading Regions().
	m.New.MarkReclaimable()
	m.Old.MarkReclaimable()
	m.result = result
	m.done.Store(true)
	return result
}

// Done reports whether the merge has completed.
func (m *Merge) Done() bool { return m.done.Load() }

// Get performs a linearizable point lookup across the merging pair. It
// probes newtable → insertion mark → oldtable (the §4.3 read protocol)
// inside a seqlock window, retrying if a node migrated mid-probe.
func (m *Merge) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	// A probe costs three list searches, a migration only a little more;
	// when the merger is hot, optimistic retries lose the race over and
	// over, so cut over to the mutex quickly.
	for tries := 0; tries < 4; tries++ {
		// A completed merge hands off to the result: the shared list may
		// already be migrating again under a *later* merge, whose steps do
		// not bump this merge's seqlock — only the result's own protocol
		// (its activeMerge / forward chain) covers that.
		if m.done.Load() {
			return m.result.GetSafe(key)
		}
		v1 := m.pos.Load()
		if v1&1 == 1 {
			runtime.Gosched()
			continue
		}
		value, seq, kind, ok = m.getOnce(key)
		// Probe valid only if no migration step of this merge overlapped
		// (pos unchanged) and no later merge could have started (done
		// still false — later merges begin strictly after done is set).
		if m.pos.Load() == v1 && !m.done.Load() {
			return value, seq, kind, ok
		}
	}
	// Persistent contention with the merger: serialize behind one step.
	m.mu.Lock()
	value, seq, kind, ok = m.getOnce(key)
	done := m.done.Load()
	m.mu.Unlock()
	if done {
		return m.result.GetSafe(key)
	}
	return value, seq, kind, ok
}

func (m *Merge) getOnce(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	return m.getOnceBounded(key, keys.MaxSeq)
}

func (m *Merge) getOnceBounded(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	consider := func(v []byte, s uint64, k keys.Kind) {
		if s > maxSeq {
			return
		}
		if !ok || s > seq {
			value, seq, kind, ok = v, s, k, true
		}
	}
	if v, s, k, found := m.New.list.GetBounded(key, maxSeq); found {
		consider(v, s, k)
	}
	if a := vaddr.Addr(m.mark.Load()); !a.IsNil() {
		n := m.New.list.Node(a)
		if bytes.Equal(n.Key(), key) {
			consider(n.Value(), n.Seq(), n.Kind())
		}
	}
	if v, s, k, found := m.Old.list.GetBounded(key, maxSeq); found {
		consider(v, s, k)
	}
	return value, seq, kind, ok
}

// GetBounded is Get restricted to versions with sequence ≤ maxSeq — the
// snapshot-read variant of the §4.3 probe, under the same seqlock
// protocol.
func (m *Merge) GetBounded(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	for tries := 0; tries < 4; tries++ {
		if m.done.Load() {
			return m.result.GetBoundedSafe(key, maxSeq)
		}
		v1 := m.pos.Load()
		if v1&1 == 1 {
			runtime.Gosched()
			continue
		}
		value, seq, kind, ok = m.getOnceBounded(key, maxSeq)
		if m.pos.Load() == v1 && !m.done.Load() {
			return value, seq, kind, ok
		}
	}
	m.mu.Lock()
	value, seq, kind, ok = m.getOnceBounded(key, maxSeq)
	done := m.done.Load()
	m.mu.Unlock()
	if done {
		return m.result.GetBoundedSafe(key, maxSeq)
	}
	return value, seq, kind, ok
}

// MayContain consults both tables' filters.
func (m *Merge) MayContain(key []byte) bool {
	return m.New.MayContain(key) || m.Old.MayContain(key)
}

// MarkNode returns the in-flight node, if any, for scan paths that must
// not miss it.
func (m *Merge) MarkNode() (skiplist.Node, bool) {
	a := vaddr.Addr(m.mark.Load())
	if a.IsNil() {
		return skiplist.Node{}, false
	}
	return m.New.list.Node(a), true
}

// Moved returns the number of nodes migrated into the oldtable.
func (m *Merge) Moved() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.moved
}

// Garbage returns bytes of duplicates logically deleted so far.
func (m *Merge) Garbage() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.garbage
}

// Resume repairs a merge interrupted by a crash and drains the remainder.
// markAddr is the persisted slot: nil if the crash came before the first
// step stored it or after Run cleared it, else the node of the last step
// begun, in flight or finished. Resume redoes that step from scratch:
// it unlinks the node from whichever list(s) reference it, re-decides the
// duplicate against the oldtable, relinks the node and unlinks the older
// versions behind it (§4.7's corner cases 1–3 all reduce to this). Redoing
// a finished step is idempotent too:
//
//   - a migrated node, its Phase-2 unlinks partly or fully done, is
//     unlinked and relinked at the same position, and the unlinks are
//     completed;
//   - a dropped duplicate is in neither list; the newer version that
//     superseded it is still in the oldtable, so it is dropped again;
//   - a duplicate the snapshot gate retained is dropped now: no snapshot
//     survives a crash;
//   - a node dropped under a range tombstone is relinked, as a crash inside
//     its step already leaves it: reads stay hidden by the tombstone, and
//     the level's next merge drops it.
//
// The node's key, with the newest version the repair leaves for it, seeds
// the drain as the last migration, so the older versions still in the
// newtable are dropped just as the uninterrupted drain drops them. OnDrop
// observes a node dropped before the crash a second time.
func (m *Merge) Resume(markAddr vaddr.Addr) *Table {
	var d drain
	if !markAddr.IsNil() {
		// Cold: the repair searches from the heads and settles at once.
		var w skiplist.Walk
		n := m.New.list.Node(markAddr)
		key := append([]byte(nil), w.Key(n)...)
		seq := n.Seq()

		// An in-flight node belonged to neither list at crash time, and a
		// dropped one belongs to none, so the filters rebuilt from list
		// scans at attach time may miss its key; restore it before the
		// merged filter is derived. Recovery is single-threaded here, so
		// mutating the filter is safe.
		if m.Old.filter != nil {
			m.Old.filter.Add(key)
		}

		// If the node is still (fully or partially) linked in the
		// newtable, its only predecessor is the head: redo the removal.
		if first := m.New.list.First(&w); !first.IsNil() && first.Addr() == markAddr {
			m.New.list.RemoveFirst(&w)
		}
		// Unlink whatever levels of the oldtable it was linked at, so it
		// can be re-inserted cleanly.
		m.Old.list.Remove(key, seq)
		// Re-decide: does the oldtable already hold a newer version?
		if ex := m.Old.list.FindGE(key); !ex.IsNil() && bytes.Equal(w.Key(ex), key) && ex.Seq() > seq {
			m.garbage += n.Size() // duplicate: drop for good
			if m.OnDrop != nil {
				m.OnDrop(w.Value(n), n.Kind())
			}
			d.lastSeq = ex.Seq()
		} else {
			m.Old.list.InsertNode(n)
			for {
				del := m.Old.list.RemoveAfter(n)
				if del.IsNil() {
					break
				}
				m.garbage += del.Size()
				if m.OnDrop != nil {
					m.OnDrop(w.Value(del), del.Kind())
				}
			}
			m.moved++
			d.lastSeq = seq
		}
		w.Done()
		d.lastKey, d.lastValid = key, true
	}
	return m.run(&d)
}
