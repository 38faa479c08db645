package pmtable

import (
	"miodb/internal/keys"
	"miodb/internal/skiplist"
)

// Scans over PMTables must survive zero-copy compaction: a merge migrates
// nodes between the pair's skip lists by rewriting their tower pointers,
// so an iterator that chases cached node pointers can be teleported from
// the new table's list into the old one mid-walk — silently skipping
// every not-yet-migrated entry behind it. Point reads solve this with the
// merge's seqlock (Table.GetSafe); SafeIterator is the scan-side
// counterpart, built on one fact: *settled is monotone*.
//
// A table is settled while it has neither an activeMerge nor a forward.
// The engine sets each of the two exactly once per merge and never clears
// them after a node has moved, so a table that reads settled *now* has had
// an immutable list ever since it was built (a flush output, or a merge
// result after finish) — and the merger publishes activeMerge strictly
// before its first pointer store, the ordering Table.GetSafe step 3 relies
// on. SafeIterator therefore remembers the settled live table its node
// came from and steps in two ways:
//
//   - fast: load the node's level-0 successor, *then* re-read the two
//     flags. Still settled: no migration store can precede the load, the
//     pointer is the list's, take it (one 8-byte metered read). The check
//     comes after the load so that a node a just-started merge migrated —
//     or dropped — under the iterator is never followed;
//   - slow: anything else re-seeks the strict successor of the current
//     (key, seq) from the live list heads under the merge's seqlock,
//     following forward/activeMerge at call time, at O(log n) per step.
//     The iterator stays slow until one of those seeks lands on a settled
//     table again (a drained pair forwards to its result, which is one):
//     the licence always comes from a fresh seek, never from the table the
//     iterator left.
//
// Node memory itself is stable ground: migrations rewrite tower pointers
// only, never key/value bytes, and arenas are freed strictly after the
// reader's pinned version drains. Holding the current node is therefore
// always safe; trusting its pointers is safe only on a settled table.

// succSource yields strict-successor probes: the first entry ≥ (key, seq)
// in internal order, from live state, and the table the entry was read
// from if that table was settled throughout the probe (else nil).
type succSource interface {
	succSafe(key []byte, seq uint64) (skiplist.Node, *Table)
}

// settled reports that no merge has touched the table's list since the
// table was built; see the note above.
func (t *Table) settled() bool { return t.activeMerge.Load() == nil && t.forward.Load() == nil }

// succSafe returns the first entry ≥ (key, seq) in the table, reading
// through forward pointers and any active merge exactly like GetSafe.
func (t *Table) succSafe(key []byte, seq uint64) (skiplist.Node, *Table) {
	if f := t.Forward(); f != nil {
		return f.succSafe(key, seq)
	}
	if m := t.ActiveMerge(); m != nil {
		return m.succSafe(key, seq)
	}
	n := t.list.SeekGE(key, seq)
	// A merge may have started during the raw seek; its migrations could
	// have slid nodes under the search. Redo through the merge protocol.
	if m := t.ActiveMerge(); m != nil {
		return m.succSafe(key, seq)
	}
	return n, t
}

// succSafe returns the first entry ≥ (key, seq) across the merging pair —
// the nearer of the two lists' — under the merge's seqlock; after
// completion it reads through the result table.
func (m *Merge) succSafe(key []byte, seq uint64) (n skiplist.Node, from *Table) {
	if m.validated(func() { n = m.succOnce(key, seq) }) {
		return m.result.succSafe(key, seq)
	}
	return n, nil
}

// succOnce is succSafe's unvalidated probe.
func (m *Merge) succOnce(key []byte, seq uint64) skiplist.Node {
	n := m.New.list.SeekGE(key, seq)
	o := m.Old.list.SeekGE(key, seq)
	if n.IsNil() || (!o.IsNil() && keys.Compare(o.Key(), o.Seq(), n.Key(), n.Seq()) < 0) {
		return o
	}
	return n
}

// SafeIterator walks a table (or an in-flight merge) in internal order,
// chasing level-0 pointers while its table is settled and re-seeking the
// strict successor otherwise. It satisfies the iterx.Iterator contract
// structurally.
type SafeIterator struct {
	src   succSource
	key   []byte // copy: the position must survive the node migrating
	node  skiplist.Node
	valid bool
	// from is the settled table node was read from — the licence to follow
	// node's level-0 pointer — or nil when the last probe crossed a merge.
	from *Table
}

// NewSafeIterator returns a migration-safe iterator over the table.
func (t *Table) NewSafeIterator() *SafeIterator { return &SafeIterator{src: t} }

// NewSafeIterator returns a migration-safe iterator over the merging pair.
func (m *Merge) NewSafeIterator() *SafeIterator { return &SafeIterator{src: m} }

func (it *SafeIterator) set(n skiplist.Node, from *Table) {
	it.from = from
	if n.IsNil() {
		it.valid = false
		return
	}
	it.node = n
	it.key = append(it.key[:0], n.Key()...)
	it.valid = true
}

// SeekToFirst positions at the first entry.
func (it *SafeIterator) SeekToFirst() { it.set(it.src.succSafe(nil, keys.MaxSeq)) }

// Seek positions at the first entry with user key ≥ key.
func (it *SafeIterator) Seek(key []byte) { it.set(it.src.succSafe(key, keys.MaxSeq)) }

// Next advances to the strict successor of the current position: the
// node's own level-0 successor if the table is still settled after the
// pointer was loaded, else a re-seek. Sequence numbers start at 1, so
// seq-1 never underflows below the head's 0.
func (it *SafeIterator) Next() {
	if !it.valid {
		return
	}
	if t := it.from; t != nil {
		next := it.node.NextAddr(0)
		if t.settled() {
			it.set(t.list.Node(next), t)
			return
		}
	}
	it.set(it.src.succSafe(it.key, it.node.Seq()-1))
}

// Valid reports whether positioned on an entry.
func (it *SafeIterator) Valid() bool { return it.valid }

// Key returns the current user key (stable node bytes).
func (it *SafeIterator) Key() []byte { return it.key }

// Value returns the current value (stable node bytes).
func (it *SafeIterator) Value() []byte { return it.node.Value() }

// Seq returns the current sequence number.
func (it *SafeIterator) Seq() uint64 { return it.node.Seq() }

// Kind returns the current entry kind.
func (it *SafeIterator) Kind() keys.Kind { return it.node.Kind() }
