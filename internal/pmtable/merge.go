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
// newer table ("newtable") is drained into the older table ("oldtable")
// purely by rewriting skip-list pointers with 8-byte atomic stores. No key
// or value bytes move, so the only write traffic — and the only write
// amplification — is pointer words.
//
// Runs. The paper moves one node at a time. Consecutive newtable nodes that
// land in one oldtable gap are already linked to each other, though, so
// the merge moves them as one run (up to runCap nodes): a run whose
// tallest node has height H costs one mark store and 3H pointer stores —
// H newtable head stores, H stores from its last nodes into the oldtable
// and H oldtable predecessor stores — where moving its nodes one by one
// costs 3h + 1 for each node of height h. A run ends before a node that
// orders at or after the first node's oldtable successor, a version of the
// key before it, or a node the merge drops; a dropped node and a retained
// duplicate move alone.
//
// Concurrent reads. While a merge runs, the level exposes the Merge itself
// as the read source for the pair. A point lookup must observe every node
// no matter where it currently lives. The paper's protocol probes newtable
// → insertion mark → oldtable, closing the two races §4.3 describes, but a
// third interleaving remains: a reader that entered the newtable through a
// stale head pointer can be carried into the oldtable when the in-flight
// run's towers are rewritten, silently skipping the newtable's remaining
// nodes. So the merger brackets each migration with an odd/even position
// counter (a seqlock), and a reader retries its probe of the two lists
// until it completes within a stable window, falling back to the merge
// mutex under persistent contention. A run is between the lists only
// inside a window, so a validated probe never needs the mark, and readers
// do not read it: a recorded departure from §4.3, whose mark is kept only
// for crash recovery. The common case is uncontended and lock-free, as the
// paper intends.
//
// Crash consistency (§4.7). Each step persists the mark of the run about to
// leave the newtable to an NVM slot before unlinking it, and Run clears the
// slot once, after the last step. The slot therefore names either the run
// in flight or the last run finished (nil before the first step and after
// the drain); Resume redoes the run it names, which is idempotent in both
// cases, and continues the drain.
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

	pos atomic.Uint64 // seqlock; odd while a run migrates
	mu  sync.Mutex    // merger holds per migration; reader fallback path

	// Optional persistence of the insertion mark for crash recovery: the
	// slot's region (for its meter) and the slot itself, resolved once.
	// The slot is not cleared when a step ends, only when Run does.
	markRegion *vaddr.Region
	markSlot   vaddr.Span

	garbage int64 // bytes of duplicate nodes logically deleted
	moved   int64 // nodes migrated
	runs    int64 // runs migrated
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

// runCap bounds a run's length: its length less one is kept in the mark's
// low markLenBits bits, which a node address leaves zero (nodes are 8-byte
// aligned).
const (
	markLenBits = 3
	runCap      = 1 << markLenBits
)

// runMark is the mark that names r: its first node's address, with the
// run's length less one in the low bits.
func runMark(r *skiplist.Run) uint64 { return uint64(r.First().Addr()) | uint64(r.Len()-1) }

// splitMark returns the first node's address and the length of the run a
// mark names; the address is nil for the nil mark.
func splitMark(v uint64) (vaddr.Addr, int) {
	return vaddr.Addr(v &^ (runCap - 1)), int(v&(runCap-1)) + 1
}

// persistMark stores v to the mark slot, if the merge has one; the store
// is counted on w like any other of the step.
func (m *Merge) persistMark(w *skiplist.Walk, v uint64) {
	if m.markRegion != nil {
		w.Store64(m.markRegion, m.markSlot, v)
	}
}

// drain is what the merger carries from one step to the next.
type drain struct {
	// The last node migrated (not dropped): the version that supersedes
	// the next node if their user keys match.
	lastKey   []byte
	lastSeq   uint64
	lastValid bool

	// splice is the oldtable insertion position past the last run migrated,
	// kept as the finger for the next one: the newtable drains in sorted
	// order, so each target lies at or just past it. It lives only in the
	// merger's memory — Run (and therefore Resume, after its repair) always
	// starts cold, from the zero splice: one full search from the head.
	splice [skiplist.MaxHeight]skiplist.Node

	// run is the step's run, gathered outside the locked window.
	run skiplist.Run

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
	m.persistMark(&d.w, uint64(vaddr.NilAddr))
	d.w.Done()
	return m.finish()
}

// canDrop applies the snapshot gate to a superseded-version deletion.
func (m *Merge) canDrop(newerSeq uint64) bool {
	return m.Drop == nil || m.Drop(newerSeq)
}

// dead applies the range-tombstone gate to node n, whose key is key.
func (m *Merge) dead(key []byte, n skiplist.Node) bool {
	return m.Dead != nil && m.Dead(key, n.Seq(), n.Kind())
}

// step migrates one run, or drops one node; it reports false when the
// newtable is empty.
//
// The expensive part of a migration — the oldtable splice search and the
// walk that gathers the run, metered NVM reads — runs *outside* the
// locked, seqlock-odd windows: only this merger mutates the two lists, so
// a splice and a run computed between windows stay valid. The locked
// windows contain nothing but pointer stores, keeping reader fallback
// waits to a microsecond — the paper's lock-free spirit with the seqlock
// safety net. Not even the device is visited inside them: the step's loads
// and stores are tallied (d.w) and settled once, after the last window
// closes — the device's counters are a cache line the foreground writes
// too, and under Simulate a charge may wait.
//
// The search itself is a finger search (skiplist.AdvanceSplice): the
// splice of the previous migration is advanced to the run's first node
// instead of descending from the oldtable's head again. What keeps the
// carried splice valid between steps: targets strictly ascend (the
// newtable is drained from its head); a migrated run's last nodes become
// the splice entries at their own levels; and the only nodes this merger
// ever unlinks from the oldtable — superseded versions directly behind
// the run just migrated — order after every splice entry, so no entry is
// ever unlinked. Dropped nodes never touch the oldtable at all. Every node
// of the run orders before the first node's oldtable successor, so the
// one splice is every node's, and only the last node can have superseded
// versions behind it.
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
	drop := (dup && m.canDrop(d.lastSeq)) || m.dead(key, n)
	r := &d.run
	r.Reset()
	r.Add(n)

	// Phase 0 (unlocked): bring the oldtable splice to n's position and
	// gather the run that follows n into the same gap. A retained
	// duplicate moves alone, so that only a lone node is ever a duplicate
	// (Resume relies on it).
	if !drop {
		succ := oldL.AdvanceSplice(w, key, n.Seq(), &d.splice)
		if !dup {
			key = m.gather(d, key, succ)
		}
	}

	// Phase 1 (locked, pos odd): the migration itself — mark, unlink
	// from the newtable, relink into the oldtable. Pointer stores only.
	m.mu.Lock()
	m.pos.Add(1)
	// 1. Persist the run's insertion mark before it leaves the newtable
	//    (§4.7): Resume redoes the run it names. The slot keeps naming it
	//    after the window; the next step overwrites it.
	m.persistMark(w, runMark(r))
	// 2. Remove it from the newtable: atomic head-pointer stores.
	newL.RemoveFirstRun(w, r)
	if drop {
		// Logically delete the node. Its bytes are reclaimed with the
		// arena after lazy-copy compaction.
		m.garbage += n.Size()
	} else {
		// 3. Insert into the oldtable at its (key, seq) position; the
		//    splice moves past the run.
		oldL.InsertRunWithSplice(w, r, &d.splice)
		m.moved += int64(r.Len())
		m.runs++
	}
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

	// Phase 2: unlink superseded versions now directly behind the run's
	// last node (the N_d4/N_d3 case) in a short locked window each. No
	// search: a successor directly follows that node, so at every level
	// its predecessor is the splice entry. The snapshot gate applies:
	// successors superseded at the node's sequence stay put while a
	// snapshot's bound is below it.
	last := r.Last()
	for m.canDrop(last.Seq()) {
		succ := oldL.Next(w, last)
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
	d.lastSeq = last.Seq()
	d.lastValid = true
	return true
}

// gather extends d's run, which holds one node with key key, along the
// newtable's level 0 while the next node orders before succ (the oldtable
// successor of the splice), is not a version of the key before it, is not
// dead, and the run is shorter than runCap. It returns the key of the
// run's last node.
func (m *Merge) gather(d *drain, key []byte, succ skiplist.Node) []byte {
	w, r := &d.w, &d.run
	var succKey []byte
	if !succ.IsNil() {
		succKey = w.Key(succ)
	}
	for r.Len() < runCap {
		next := m.New.list.Next(w, r.Last())
		if next.IsNil() {
			break
		}
		nextKey := w.Key(next)
		if bytes.Equal(nextKey, key) ||
			(!succ.IsNil() && keys.Compare(nextKey, next.Seq(), succKey, succ.Seq()) >= 0) ||
			m.dead(nextKey, next) {
			break
		}
		r.Add(next)
		key = nextKey
	}
	return key
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
	m.result = result
	m.done.Store(true)
	return result
}

// Done reports whether the merge has completed.
func (m *Merge) Done() bool { return m.done.Load() }

// Get returns the newest version of key with sequence ≤ maxSeq across the
// merging pair: a linearizable point lookup that probes the newtable, then
// the oldtable, inside a stable seqlock window (keys.MaxSeq reads the
// newest version outright).
func (m *Merge) Get(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	if m.validated(func() { value, seq, kind, ok = m.getOnce(key, maxSeq) }) {
		return m.result.GetBoundedSafe(key, maxSeq)
	}
	return value, seq, kind, ok
}

// validated calls probe until a call completes within a stable seqlock
// window — no migration step of this merge overlapped it (pos unchanged)
// and no later merge could have started (done still false: later merges
// begin strictly after done is set). It reports true, with the probe's
// effects void, once the merge has completed: the shared list may then be
// migrating again under a later merge, whose steps do not bump this
// merge's seqlock, so the caller must read through the result's own
// protocol instead.
func (m *Merge) validated(probe func()) (done bool) {
	// A probe costs two list searches, a migration only a little more;
	// when the merger is hot, optimistic retries lose the race over and
	// over, so cut over to the mutex quickly.
	for tries := 0; tries < 4; tries++ {
		if m.done.Load() {
			return true
		}
		v1 := m.pos.Load()
		if v1&1 == 1 {
			runtime.Gosched()
			continue
		}
		probe()
		if m.pos.Load() == v1 && !m.done.Load() {
			return false
		}
	}
	// Persistent contention with the merger: serialize behind one step.
	m.mu.Lock()
	probe()
	done = m.done.Load()
	m.mu.Unlock()
	return done
}

// getOnce is Get's unvalidated probe. A version the merge has moved is
// newer than the versions of its key still in the newtable, so the newest
// version may sit in either list.
func (m *Merge) getOnce(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	value, seq, kind, ok = m.New.list.GetBounded(key, maxSeq)
	if v, s, k, found := m.Old.list.GetBounded(key, maxSeq); found && (!ok || s > seq) {
		value, seq, kind, ok = v, s, k, true
	}
	return value, seq, kind, ok
}

// MayContainHash consults both tables' filters for a key hashed with
// bloom.Hash.
func (m *Merge) MayContainHash(h uint64) bool {
	return m.New.mayContainHash(h) || m.Old.mayContainHash(h)
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
// mark is the persisted slot: nil if the crash came before the first step
// stored it or after Run cleared it, else the mark of the last step begun,
// in flight or finished. Resume redoes that step from scratch: it unlinks
// the run it names from whichever list(s) reference it, relinks it into
// the oldtable, re-decides the duplicate against the oldtable and unlinks
// the older versions behind the run (§4.7's corner cases 1–3 all reduce to
// this). Redoing a finished step is idempotent too:
//
//   - a migrated run, its Phase-2 unlinks partly or fully done, is
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
// The run is found from its first node along level 0, links that hold
// until the next step's mark replaces this one: the step's window rewrites
// none of them (only the last node's, which the search does not follow),
// and neither does this repair, which moves the run whole and so stores
// only into the heads, the splice entries around it and its nodes' towers
// at the ends of its levels. A crash inside Resume therefore leaves the
// same run to repair. While the newtable's head still names the run's
// first node the run's towers are the newtable's — the step stores into
// the head top-down, level 0 last, before it stores into any tower — so
// the head is repaired from them. In the oldtable the run is linked at a
// prefix of its levels (linked bottom-up, unlinked top-down), with the
// oldtable successor already in its towers wherever it is linked: it is
// unlinked from those levels and linked again at all of them. Only a lone
// node can be a duplicate — a duplicate never starts a longer run — so the
// duplicate decision unlinks at most that one node again.
//
// The last node's key, with the newest version the repair leaves for it,
// seeds the drain as the last migration, so the older versions still in
// the newtable are dropped just as the uninterrupted drain drops them.
// OnDrop observes a node dropped before the crash a second time.
func (m *Merge) Resume(mark vaddr.Addr) *Table {
	var d drain
	if first, k := splitMark(uint64(mark)); !first.IsNil() {
		// Cold: the repair searches from the heads and settles at once.
		var w skiplist.Walk
		newL, oldL := m.New.list, m.Old.list
		r := &d.run
		for n := newL.Node(first); ; n = newL.Next(&w, n) {
			// An in-flight node belonged to neither list at crash time, and
			// a dropped one belongs to none, so the filters rebuilt from
			// list scans at attach time may miss its key; restore it
			// before the merged filter is derived. Recovery is
			// single-threaded here, so mutating the filter is safe.
			if m.Old.filter != nil {
				m.Old.filter.Add(w.Key(n))
			}
			if r.Add(n); r.Len() == k {
				break
			}
		}
		if f := newL.First(&w); !f.IsNil() && f.Addr() == first {
			newL.RemoveFirstRun(&w, r)
		}
		n := r.First()
		key, seq := w.Key(n), n.Seq()
		var prev [skiplist.MaxHeight]skiplist.Node
		oldL.FindSplice(&w, key, seq, &prev)
		oldL.RemoveRunWithSplice(&w, r, &prev)
		oldL.InsertRunWithSplice(&w, r, &prev)
		last := r.Last()
		d.lastKey = append(d.lastKey, w.Key(last)...)
		d.lastSeq, d.lastValid = last.Seq(), true
		// Re-decide: does the oldtable already hold a newer version?
		if ex := oldL.FindGE(key); bytes.Equal(w.Key(ex), key) && ex.Seq() > seq {
			oldL.Remove(key, seq)
			m.garbage += n.Size() // duplicate: drop for good
			if m.OnDrop != nil {
				m.OnDrop(w.Value(n), n.Kind())
			}
			d.lastSeq = ex.Seq()
		} else {
			for {
				del := oldL.RemoveAfter(last)
				if del.IsNil() {
					break
				}
				m.garbage += del.Size()
				if m.OnDrop != nil {
					m.OnDrop(w.Value(del), del.Kind())
				}
			}
			m.moved += int64(k)
		}
		w.Done()
	}
	return m.run(&d)
}
