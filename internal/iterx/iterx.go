// Package iterx defines the iterator contract shared by every data source
// in the repository (memtables, PMTables, the repository, SSTables, matrix
// rows) and combinators over it: a heap-based k-way merging iterator and a
// visibility filter that collapses versions and drops tombstones for
// user-facing scans.
package iterx

import (
	"bytes"
	"container/heap"

	"miodb/internal/keys"
)

// Iterator walks entries in (user key asc, seq desc) order.
// skiplist.Iterator satisfies it structurally; block-format sources
// implement it over their decoded entries.
type Iterator interface {
	// SeekToFirst positions at the first entry.
	SeekToFirst()
	// Seek positions at the first entry with user key ≥ key.
	Seek(key []byte)
	// Next advances one entry.
	Next()
	// Valid reports whether the iterator is positioned on an entry.
	Valid() bool
	// Key returns the current user key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Seq returns the current sequence number.
	Seq() uint64
	// Kind returns the current entry kind.
	Kind() keys.Kind
}

// Merging merges several iterators into one global (key asc, seq desc)
// stream. Sources may contain duplicate keys; the stream interleaves all
// versions in order, newest first per key.
type Merging struct {
	h mergeHeap
}

// NewMerging builds a merging iterator over the given sources (nil ones
// are ignored). It adopts the slice as its heap: a caller passing
// list... hands the list over and must not use it afterwards.
func NewMerging(sources ...Iterator) *Merging {
	h := sources[:0]
	for _, s := range sources {
		if s != nil {
			h = append(h, s)
		}
	}
	return &Merging{h: h[:len(h):len(h)]}
}

type mergeHeap []Iterator

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return keys.Compare(h[i].Key(), h[i].Seq(), h[j].Key(), h[j].Seq()) < 0
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(Iterator)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// rebuild repositions every source, exhausted ones included, and heaps
// the valid ones. The heap only permutes its backing array and pops
// exhausted sources off its end, so that array still holds every source;
// rebuild swaps the valid ones to the front rather than overwriting the
// others.
func (m *Merging) rebuild(position func(Iterator)) {
	all := m.h[:cap(m.h)]
	live := 0
	for i, it := range all {
		position(it)
		if it.Valid() {
			all[live], all[i] = all[i], all[live]
			live++
		}
	}
	m.h = all[:live]
	heap.Init(&m.h)
}

// SeekToFirst positions every source at its start.
func (m *Merging) SeekToFirst() { m.rebuild(func(it Iterator) { it.SeekToFirst() }) }

// Seek positions at the first entry with user key ≥ key.
func (m *Merging) Seek(key []byte) { m.rebuild(func(it Iterator) { it.Seek(key) }) }

// Valid reports whether any source still has entries.
func (m *Merging) Valid() bool { return len(m.h) > 0 }

// Next advances the globally smallest source.
func (m *Merging) Next() {
	if len(m.h) == 0 {
		return
	}
	top := m.h[0]
	top.Next()
	if top.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

// Key returns the current user key.
func (m *Merging) Key() []byte { return m.h[0].Key() }

// Value returns the current value.
func (m *Merging) Value() []byte { return m.h[0].Value() }

// Seq returns the current sequence number.
func (m *Merging) Seq() uint64 { return m.h[0].Seq() }

// Kind returns the current entry kind.
func (m *Merging) Kind() keys.Kind { return m.h[0].Kind() }

var _ Iterator = (*Merging)(nil)

// Visible wraps an iterator in user-visible semantics: only the newest
// version of each key is yielded, and keys whose newest version is a
// tombstone are skipped entirely. It is the scan-path contract of every
// store here.
type Visible struct {
	in      Iterator
	lastKey []byte
	valid   bool
}

// NewVisible wraps in. The wrapped iterator must produce (key asc, seq
// desc) order, as Merging does.
func NewVisible(in Iterator) *Visible { return &Visible{in: in} }

// advance finds the next visible entry, assuming in is positioned at a
// candidate (the newest version of some key not yet yielded).
func (v *Visible) advance() {
	for v.in.Valid() {
		k := v.in.Key()
		if v.lastKey != nil && bytes.Equal(k, v.lastKey) {
			v.in.Next() // older version of a yielded/skipped key
			continue
		}
		v.lastKey = append(v.lastKey[:0], k...)
		if v.in.Kind() == keys.KindDelete {
			v.in.Next() // tombstone: hide the key entirely
			continue
		}
		v.valid = true
		return
	}
	v.valid = false
}

// SeekToFirst positions at the first visible entry.
func (v *Visible) SeekToFirst() {
	v.in.SeekToFirst()
	v.lastKey = nil
	v.advance()
}

// Seek positions at the first visible entry with key ≥ key.
func (v *Visible) Seek(key []byte) {
	v.in.Seek(key)
	v.lastKey = nil
	v.advance()
}

// Next advances to the next visible key.
func (v *Visible) Next() {
	if !v.valid {
		return
	}
	v.in.Next()
	v.advance()
}

// Valid reports whether positioned on a visible entry.
func (v *Visible) Valid() bool { return v.valid }

// Key returns the current user key.
func (v *Visible) Key() []byte { return v.in.Key() }

// Value returns the current value.
func (v *Visible) Value() []byte { return v.in.Value() }

// Seq returns the current sequence number.
func (v *Visible) Seq() uint64 { return v.in.Seq() }

// Kind returns keys.KindSet (tombstones are filtered).
func (v *Visible) Kind() keys.Kind { return v.in.Kind() }

var _ Iterator = (*Visible)(nil)

// Filtered hides entries a snapshot read must not see: entries with
// sequence numbers above the snapshot bound, and entries covered by a
// range tombstone (reported by the dead callback). It sits beneath
// Visible, which then applies the usual newest-version/point-tombstone
// semantics to the filtered stream. A nil dead callback filters by bound
// only; maxSeq = keys.MaxSeq filters by tombstones only.
type Filtered struct {
	in     Iterator
	maxSeq uint64
	dead   func(key []byte, seq uint64) bool
}

// NewFiltered wraps in with a sequence bound and a range-tombstone
// predicate.
func NewFiltered(in Iterator, maxSeq uint64, dead func(key []byte, seq uint64) bool) *Filtered {
	return &Filtered{in: in, maxSeq: maxSeq, dead: dead}
}

func (f *Filtered) skip() {
	for f.in.Valid() {
		if f.in.Seq() > f.maxSeq || (f.dead != nil && f.dead(f.in.Key(), f.in.Seq())) {
			f.in.Next()
			continue
		}
		return
	}
}

// SeekToFirst positions at the first passing entry.
func (f *Filtered) SeekToFirst() { f.in.SeekToFirst(); f.skip() }

// Seek positions at the first passing entry with user key ≥ key.
func (f *Filtered) Seek(key []byte) { f.in.Seek(key); f.skip() }

// Next advances to the next passing entry.
func (f *Filtered) Next() { f.in.Next(); f.skip() }

// Valid reports whether positioned on a passing entry.
func (f *Filtered) Valid() bool { return f.in.Valid() }

// Key returns the current user key.
func (f *Filtered) Key() []byte { return f.in.Key() }

// Value returns the current value.
func (f *Filtered) Value() []byte { return f.in.Value() }

// Seq returns the current sequence number.
func (f *Filtered) Seq() uint64 { return f.in.Seq() }

// Kind returns the current entry kind.
func (f *Filtered) Kind() keys.Kind { return f.in.Kind() }

var _ Iterator = (*Filtered)(nil)

// Cursor is the user-facing iterator surface Scan drives: positioned
// reads over live keys plus a sticky error.
type Cursor interface {
	Seek(key []byte)
	Next()
	Valid() bool
	Key() []byte
	Value() []byte
	Err() error
}

// Scan is the scan loop of every store front end: it calls fn for up to
// limit entries of it from the first key ≥ start, stopping early when fn
// returns false; limit ≤ 0 means no limit. It returns the iterator's
// error, whether the iterator failed to open or raised one mid-scan.
func Scan(it Cursor, start []byte, limit int, fn func(key, value []byte) bool) error {
	if err := it.Err(); err != nil {
		return err
	}
	n := 0
	for it.Seek(start); it.Valid() && (limit <= 0 || n < limit); it.Next() {
		if !fn(it.Key(), it.Value()) {
			break
		}
		n++
	}
	return it.Err()
}
