package skiplist

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"miodb/internal/keys"
	"miodb/internal/vaddr"
)

// List is a skip list whose nodes live in vaddr regions. New nodes are
// allocated in the home region; after zero-copy merges a list may span
// nodes from many regions (tracked by the owning PMTable).
//
// Writers must be externally serialized (one writer at a time); readers
// are lock-free.
type List struct {
	space *vaddr.Space
	home  *vaddr.Region
	head  vaddr.Addr
	rnd   uint64

	count atomic.Int64 // live entries (volatile bookkeeping)
	bytes atomic.Int64 // user bytes (key+value) inserted
}

// New allocates a fresh list (head node) in the home region.
func New(home *vaddr.Region) (*List, error) {
	head, err := home.Alloc(int(nodeSize(MaxHeight, 0, 0)))
	if err != nil {
		return nil, err
	}
	home.PutUint64(head.Add(metaOff), packMeta(MaxHeight, keys.KindSet, 0, 0))
	home.PutUint64(head.Add(seqOff), 0)
	for i := 0; i < MaxHeight; i++ {
		home.PutUint64(head.Add(towerOff+int64(i)*8), uint64(vaddr.NilAddr))
	}
	home.ChargeWrite(int(nodeSize(MaxHeight, 0, 0)))
	return &List{
		space: home.Space(),
		home:  home,
		head:  head,
		rnd:   uint64(head) ^ 0x9e3779b97f4a7c15,
	}, nil
}

// Attach builds a List view over an existing head node (after a one-piece
// flush, a crash recovery, or a merge). home is where future allocations
// go; it may be nil for lists that only re-link existing nodes.
func Attach(space *vaddr.Space, head vaddr.Addr, home *vaddr.Region) *List {
	return &List{space: space, home: home, head: head, rnd: uint64(head) ^ 0x2545f4914f6cdd1d}
}

// Head returns the head node's address (persisted in table metadata).
func (l *List) Head() vaddr.Addr { return l.head }

// Space returns the address space the list lives in.
func (l *List) Space() *vaddr.Space { return l.space }

// Count returns the number of live entries (approximate under concurrent
// merge; exact when quiescent).
func (l *List) Count() int64 { return l.count.Load() }

// SetCount overrides the bookkeeping count (used when attaching to a
// recovered list whose count is known from metadata or a scan).
func (l *List) SetCount(n int64) { l.count.Store(n) }

// UserBytes returns the total key+value bytes inserted.
func (l *List) UserBytes() int64 { return l.bytes.Load() }

// AddUserBytes adjusts the user-byte bookkeeping (used by merges).
func (l *List) AddUserBytes(n int64) { l.bytes.Add(n) }

// Node resolves a virtual address to a node reference. Single-region
// lists (memtables, fresh PMTables) resolve through their home region
// directly, so readers keep working even after the region is detached
// from the space (retired memtables may still be read by in-flight
// operations; the chunks stay alive until those drop their references).
func (l *List) Node(a vaddr.Addr) Node {
	if a.IsNil() {
		return Node{}
	}
	if l.home != nil && a.Region() == l.home.Index() {
		return resolve(l.home, a)
	}
	r := l.space.RegionOf(a)
	if r == nil {
		panic(fmt.Sprintf("skiplist: dangling node address %v", a))
	}
	return resolve(r, a)
}

func (l *List) headNode() Node { return l.Node(l.head) }

// randomHeight draws a tower height with branching factor 4 (p = 1/4),
// LevelDB's choice.
func (l *List) randomHeight() int {
	h := 1
	for h < MaxHeight {
		// xorshift64*
		l.rnd ^= l.rnd >> 12
		l.rnd ^= l.rnd << 25
		l.rnd ^= l.rnd >> 27
		if (l.rnd*0x2545f4914f6cdd1d)>>62 != 0 {
			break
		}
		h++
	}
	return h
}

// findSplice locates the insertion position for (key, seq): prev[i] is the
// rightmost node at level i ordered strictly before (key, seq), and the
// returned node is the overall successor (first node ≥ (key, seq)), or the
// nil node. The descent is counted on w.
func (l *List) findSplice(w *Walk, key []byte, seq uint64, prev *[MaxHeight]Node) Node {
	cur := l.headNode()
	var next Node
	for level := MaxHeight - 1; level >= 0; level-- {
		cur, next = l.walkLevel(w, cur, level, key, seq)
		if prev != nil {
			prev[level] = cur
		}
	}
	return next
}

// walkLevel moves right from cur along one level while the next node
// orders strictly before (key, seq). It returns the last such node (cur
// itself if none) and the node that stopped the walk — the first at this
// level ≥ (key, seq), or the nil node at the end of the level.
//
// It is ahead's step in one loop, with the pointer load, the key read and
// the Walk tally inline, because every search spends most of its time
// here. It counts exactly what ahead counts: one 8-byte read per pointer
// loaded and one key read per node compared.
func (l *List) walkLevel(w *Walk, cur Node, level int, key []byte, seq uint64) (Node, Node) {
	slot := slotOff(level)
	for {
		w.load(cur.region, 8)
		next := l.Node(vaddr.Addr(cur.mem.Load64(slot)))
		if next.IsNil() {
			return cur, next
		}
		m := next.meta()
		kl := int(m >> 16 & 0xffff)
		w.load(next.region, kl)
		if !before(bytes.Compare(next.mem.Bytes(slotOff(int(m&0xff)), kl), key), next, seq) {
			return cur, next
		}
		cur = next
	}
}

// ahead looks one step right of cur at level: the node there (nil at the
// end of the level) and whether it orders strictly before (key, seq).
func (l *List) ahead(w *Walk, cur Node, level int, key []byte, seq uint64) (Node, bool) {
	next := l.Node(w.next(cur, level))
	return next, !next.IsNil() && before(bytes.Compare(w.Key(next), key), next, seq)
}

// before reports whether n orders strictly before (key, seq), given c,
// bytes.Compare of n's key with key: keys.Compare's order, in a form that
// inlines and reads n's sequence only on a key tie.
func before(c int, n Node, seq uint64) bool { return c < 0 || c == 0 && n.Seq() > seq }

// seekGE returns the first node ≥ (key, seq) without recording the splice.
// The whole descent is one device charge.
func (l *List) seekGE(key []byte, seq uint64) Node {
	var w Walk
	n := l.findSplice(&w, key, seq, nil)
	w.Done()
	return n
}

// Insert adds a new entry. (key, seq) must be unique within the list —
// guaranteed by the store's monotonically increasing global sequence.
func (l *List) Insert(key, value []byte, seq uint64, kind keys.Kind) error {
	_, err := l.InsertEntry(key, value, seq, kind)
	return err
}

// InsertEntry is Insert returning the freshly linked node. Search, node
// fill and links settle with the device together.
func (l *List) InsertEntry(key, value []byte, seq uint64, kind keys.Kind) (Node, error) {
	var w Walk
	defer w.Done()
	var prev [MaxHeight]Node
	next := l.findSplice(&w, key, seq, &prev)
	if !next.IsNil() && next.Seq() == seq && keys.Compare(w.Key(next), next.Seq(), key, seq) == 0 {
		return Node{}, fmt.Errorf("skiplist: duplicate (key, seq=%d)", seq)
	}
	return l.InsertEntryWithSplice(&w, key, value, seq, kind, &prev)
}

// InsertEntryWithSplice is InsertEntry for a caller that has already
// searched: prev must be the splice FindSplice computes for (key, seq),
// and the list must not hold (key, seq). The repository's lazy copy looks
// a key's newest version up and inserts above it with the one descent.
// Like InsertNodeWithSplice it moves prev past the new node.
func (l *List) InsertEntryWithSplice(w *Walk, key, value []byte, seq uint64, kind keys.Kind, prev *[MaxHeight]Node) (Node, error) {
	if err := validateKV(key, value); err != nil {
		return Node{}, err
	}
	if l.home == nil {
		return Node{}, fmt.Errorf("skiplist: insert into read-only list")
	}
	height := l.randomHeight()
	n, err := l.newNode(w, key, value, seq, kind, height)
	if err != nil {
		return Node{}, err
	}
	// Link the fresh (unpublished) node to its successors, then publish.
	for i := 0; i < height; i++ {
		n.initNext(i, w.next(prev[i], i))
	}
	l.publish(w, n, height, len(key)+len(value), prev)
	return n, nil
}

// publish makes n, already linked to its successors, reachable: bottom-up
// atomic stores into the splice, so readers always see a consistent list.
// The splice moves past n — n is the entry at each of its own levels.
func (l *List) publish(w *Walk, n Node, height, userBytes int, prev *[MaxHeight]Node) {
	for i := 0; i < height; i++ {
		w.setNext(prev[i], i, n.addr)
		prev[i] = n
	}
	l.count.Add(1)
	l.bytes.Add(int64(userBytes))
}

// FindGE returns the first node whose user key is ≥ key (the newest
// version of that key first), or the nil node.
func (l *List) FindGE(key []byte) Node { return l.seekGE(key, keys.MaxSeq) }

// SeekGE returns the first node ≥ (key, seq) in internal (key asc, seq
// desc) order, or the nil node. Re-seek iterators over actively merging
// tables use it to find their strict successor from the live list head
// on every step (SeekGE(k, s-1) is the first entry strictly after
// (k, s)), instead of chasing node pointers a migration may rewrite.
func (l *List) SeekGE(key []byte, seq uint64) Node { return l.seekGE(key, seq) }

// newNode allocates and fills a node in the home region, counting one
// bulk write for the fill on w.
func (l *List) newNode(w *Walk, key, value []byte, seq uint64, kind keys.Kind, height int) (Node, error) {
	size := int(nodeSize(height, len(key), len(value)))
	addr, err := l.home.Alloc(size)
	if err != nil {
		return Node{}, err
	}
	n := resolve(l.home, addr)
	w.store(l.home, size)
	n.mem.PutUint64(metaOff, packMeta(height, kind, len(key), len(value)))
	n.mem.PutUint64(seqOff, seq)
	keyOff := slotOff(height)
	copy(n.mem.Bytes(keyOff, len(key)), key)
	copy(n.mem.Bytes(keyOff+int(pad8(len(key))), len(value)), value)
	return n, nil
}

// Get returns the newest version of key, if any version exists.
func (l *List) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	return l.GetBounded(key, keys.MaxSeq)
}

// GetBounded returns the newest version of key with sequence ≤ maxSeq, if
// one exists. Because entries order by (key asc, seq desc), the first node
// ≥ (key, maxSeq) is exactly that version when its user key matches.
// Snapshot reads use it to see through writes newer than their bound.
func (l *List) GetBounded(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	n := l.seekGE(key, maxSeq)
	if n.IsNil() {
		return nil, 0, 0, false
	}
	if keys.Compare(n.Key(), 0, key, 0) != 0 {
		return nil, 0, 0, false
	}
	return n.Value(), n.Seq(), n.Kind(), true
}

// The operations below are what a sorted drain — a zero-copy merge, a lazy
// copy, a recovery walk — is made of. Each counts its device accesses on
// the caller's Walk, who settles once per step (a nil Walk charges access
// by access).

// First returns the first node after the head, or the nil node.
func (l *List) First(w *Walk) Node { return l.Next(w, l.headNode()) }

// Next returns n's level-0 successor, or the nil node.
func (l *List) Next(w *Walk, n Node) Node {
	a := w.next(n, 0)
	if a.IsNil() {
		return Node{}
	}
	return l.Node(a)
}

// Empty reports whether the list has no entries.
func (l *List) Empty() bool { return l.First(nil).IsNil() }

// RemoveFirst unlinks and returns the first node: RemoveFirstRun of a run
// of that one node.
func (l *List) RemoveFirst(w *Walk) Node {
	n := l.First(w)
	if n.IsNil() {
		return Node{}
	}
	var r Run
	r.Add(n)
	l.RemoveFirstRun(w, &r)
	return n
}

// Run is a stretch of consecutive level-0 nodes of one list, gathered in
// order with Add, that a zero-copy merge moves to another list as one
// unit. The links between its own nodes are already right wherever it
// goes, so moving it rewrites only its ends at each level below its height
// (its tallest node's): first[i] and last[i] are its first and last nodes
// of height > i.
type Run struct {
	first, last [MaxHeight]Node
	height      int
	len         int
	userBytes   int
}

// Reset empties the run for reuse.
func (r *Run) Reset() { r.height, r.len, r.userBytes = 0, 0, 0 }

// Add appends n, which must be the level-0 successor of the run's last
// node (any node, to an empty run).
func (r *Run) Add(n Node) {
	h := n.Height()
	for i := r.height; i < h; i++ {
		r.first[i] = n
	}
	r.height = max(r.height, h)
	for i := 0; i < h; i++ {
		r.last[i] = n
	}
	r.len++
	r.userBytes += n.KeyLen() + n.ValueLen()
}

// Len returns the number of nodes in the run.
func (r *Run) Len() int { return r.len }

// First returns the run's first node.
func (r *Run) First() Node { return r.first[0] }

// Last returns the run's last node.
func (r *Run) Last() Node { return r.last[0] }

// RemoveFirstRun unlinks r, which must be the list's first nodes — the
// "remove from the newtable" step of zero-copy compaction. The run's first
// node at every level below its height has the head as its only
// predecessor, so the unlink is one atomic head-pointer store per level,
// top-down, each taking the successor of the run's last node there. The
// run's own towers are left untouched, so an in-flight reader standing on
// one of its nodes keeps a valid forward path.
func (l *List) RemoveFirstRun(w *Walk, r *Run) {
	head := l.headNode()
	for level := r.height - 1; level >= 0; level-- {
		w.setNext(head, level, w.next(r.last[level], level))
	}
	l.count.Add(-int64(r.len))
	l.bytes.Add(-int64(r.userBytes))
}

// unlinked books a node out of the list's bookkeeping.
func (l *List) unlinked(n Node) {
	l.count.Add(-1)
	l.bytes.Add(-int64(n.KeyLen() + n.ValueLen()))
}

// InsertNode links an existing node (typically just removed from another
// list) into this list at its (key, seq) position — the pointer-only
// insertion of zero-copy compaction. The node's towers are rewritten with
// atomic stores; no key or value bytes move.
func (l *List) InsertNode(n Node) {
	var w Walk
	var prev [MaxHeight]Node
	l.findSplice(&w, w.Key(n), n.Seq(), &prev)
	l.InsertNodeWithSplice(&w, n, &prev)
	w.Done()
}

// FindSplice computes the insertion splice for (key, seq) — the rightmost
// node before that position at every level — without mutating anything.
// Merges run it outside their reader-visible critical section: the search
// is the expensive part of a node migration (O(log n) NVM reads), while
// the actual relink is a handful of pointer stores. The splice stays
// valid as long as no other writer touches the list (the single-merger
// discipline).
func (l *List) FindSplice(w *Walk, key []byte, seq uint64, prev *[MaxHeight]Node) Node {
	return l.findSplice(w, key, seq, prev)
}

// AdvanceSplice moves a splice forward to (key, seq) — the finger search
// of a sorted drain — and returns the successor exactly as FindSplice
// would. prev must be a splice of this list for some position P ≤ (key,
// seq): one FindSplice computed, advanced by earlier calls, or moved past
// a node by InsertNodeWithSplice or InsertEntryWithSplice — or the zero
// splice, the cold start of a drain, which is searched for from the head
// (every entry of a real splice is at least the head node). Three
// invariants make the advance equal to a fresh FindSplice at a fraction of
// the reads:
//
//  1. every entry orders strictly before the target (targets only ascend);
//  2. every entry is still linked at its level — the single writer unlinks
//     only nodes behind the splice position (RemoveWithSplice targets),
//     never an entry;
//  3. if level b's entry still brackets the target (its successor is nil
//     or ≥ the target), no node of level b lies in [P, target), hence
//     none of any level above either (a node linked at a level is linked
//     at every lower one): the entries above b are already final.
//
// So the search finds the lowest bracketing level bottom-up and
// re-descends only below it. Each lower level resumes from whichever of
// the level above's result and its own old entry is further along, decided
// without a comparison: a node the walk advanced onto lies in [P, target)
// and so beyond every old entry (all before P); until the walk advances,
// a level's own entry is at or beyond the one above it.
func (l *List) AdvanceSplice(w *Walk, key []byte, seq uint64, prev *[MaxHeight]Node) Node {
	if prev[0].IsNil() {
		return l.findSplice(w, key, seq, prev)
	}
	var next Node
	b := 0
	for before := true; b < MaxHeight; b++ {
		if next, before = l.ahead(w, prev[b], b, key, seq); !before {
			break
		}
	}
	advanced := false
	var cur Node
	for level := b - 1; level >= 0; level-- {
		if !advanced {
			cur = prev[level]
		}
		prev[level], next = l.walkLevel(w, cur, level, key, seq)
		if prev[level] != cur {
			cur, advanced = prev[level], true
		}
	}
	return next
}

// InsertNodeWithSplice links n using a precomputed splice:
// InsertRunWithSplice of a run of that one node.
func (l *List) InsertNodeWithSplice(w *Walk, n Node, prev *[MaxHeight]Node) {
	var r Run
	r.Add(n)
	l.InsertRunWithSplice(w, &r, prev)
}

// InsertRunWithSplice links r, whose nodes all order between prev's
// entries and their successors, using that precomputed splice: pointer
// stores only, no searching. At each level below the run's height, its
// last node there takes the splice entry's successor, and then, bottom-up
// so that readers always see a consistent list, the entry takes the run's
// first node there. The links inside the run stay as they are. On return
// the splice has moved past the run — its last node at each level is the
// entry there — so it stays a valid AdvanceSplice finger for any later,
// larger target.
func (l *List) InsertRunWithSplice(w *Walk, r *Run, prev *[MaxHeight]Node) {
	for i := 0; i < r.height; i++ {
		w.setNext(r.last[i], i, w.next(prev[i], i))
	}
	for i := 0; i < r.height; i++ {
		w.setNext(prev[i], i, r.first[i].addr)
		prev[i] = r.last[i]
	}
	l.count.Add(int64(r.len))
	l.bytes.Add(int64(r.userBytes))
}

// RemoveRunWithSplice unlinks r from the levels it is linked at, using a
// precomputed splice of its first node: at each level below its height
// where the splice entry links to the run's first node there, the entry
// takes the successor of the run's last node there, top-down. The run's
// own towers are not modified, so it can be linked again just as it is.
func (l *List) RemoveRunWithSplice(w *Walk, r *Run, prev *[MaxHeight]Node) {
	for level := r.height - 1; level >= 0; level-- {
		if w.next(prev[level], level) != r.first[level].addr {
			continue
		}
		w.setNext(prev[level], level, w.next(r.last[level], level))
		if level == 0 {
			l.count.Add(-int64(r.len))
			l.bytes.Add(-int64(r.userBytes))
		}
	}
}

// RemoveWithSplice unlinks target using a precomputed splice (prev[i] is
// target's predecessor at every level where target is linked). The
// removed node's towers are not modified.
func (l *List) RemoveWithSplice(w *Walk, target Node, prev *[MaxHeight]Node) {
	for level := target.Height() - 1; level >= 0; level-- {
		if w.next(prev[level], level) == target.addr {
			w.setNext(prev[level], level, w.next(target, level))
		}
	}
	l.unlinked(target)
}

// Remove unlinks the node with exactly (key, seq), returning it, or the
// nil node if absent. The removed node's towers are not modified.
func (l *List) Remove(key []byte, seq uint64) Node {
	var w Walk
	defer w.Done()
	var prev [MaxHeight]Node
	next := l.findSplice(&w, key, seq, &prev)
	if next.IsNil() || next.Seq() != seq || keys.Compare(w.Key(next), 0, key, 0) != 0 {
		return Node{}
	}
	l.RemoveWithSplice(&w, next, &prev)
	return next
}

// RemoveAfter unlinks the immediate level-0 successor of n if it has the
// same user key (an older version). It returns the removed node or the nil
// node. A search per call: the cold form of what a drain does with its
// carried splice (merge recovery uses it).
func (l *List) RemoveAfter(n Node) Node {
	succ := l.Next(nil, n)
	if succ.IsNil() || keys.Compare(succ.Key(), 0, n.Key(), 0) != 0 {
		return Node{}
	}
	return l.Remove(succ.Key(), succ.Seq())
}

// CheckInvariants validates structural invariants, for tests: every level
// is sorted by (key asc, seq desc); every level-l chain is a subsequence of
// the level-0 chain; counts are consistent. It returns the number of
// level-0 nodes.
func (l *List) CheckInvariants() (int, error) {
	// Collect level-0 order and positions.
	pos := make(map[vaddr.Addr]int)
	var order []Node
	for n := l.First(nil); !n.IsNil(); {
		if _, dup := pos[n.addr]; dup {
			return 0, fmt.Errorf("skiplist: cycle at %v", n.addr)
		}
		pos[n.addr] = len(order)
		order = append(order, n)
		next := n.nextAddr(0)
		if next.IsNil() {
			break
		}
		n = l.Node(next)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if keys.Compare(a.Key(), a.Seq(), b.Key(), b.Seq()) >= 0 {
			return 0, fmt.Errorf("skiplist: level 0 order violated at index %d", i)
		}
	}
	for level := 1; level < MaxHeight; level++ {
		last := -1
		for a := l.headNode().nextAddr(level); !a.IsNil(); {
			n := l.Node(a)
			p, okPos := pos[a]
			if !okPos {
				return 0, fmt.Errorf("skiplist: level %d node %v not on level 0", level, a)
			}
			if p <= last {
				return 0, fmt.Errorf("skiplist: level %d not a subsequence at %v", level, a)
			}
			if n.Height() <= level {
				return 0, fmt.Errorf("skiplist: node %v height %d linked at level %d", a, n.Height(), level)
			}
			last = p
			a = n.nextAddr(level)
		}
	}
	return len(order), nil
}
