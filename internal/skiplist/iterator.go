package skiplist

import (
	"miodb/internal/keys"
	"miodb/internal/vaddr"
)

// Iterator walks a list in (key asc, seq desc) order. It is safe to use
// concurrently with a writer under the list's single-writer discipline;
// entries inserted after a position was taken may or may not be observed.
type Iterator struct {
	l *List
	n Node
}

// NewIterator returns an unpositioned iterator (Valid() == false).
func (l *List) NewIterator() *Iterator { return &Iterator{l: l} }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return !it.n.IsNil() }

// SeekToFirst positions on the first entry.
func (it *Iterator) SeekToFirst() { it.n = it.l.First(nil) }

// Seek positions on the first entry with user key ≥ key (its newest
// version first).
func (it *Iterator) Seek(key []byte) { it.n = it.l.seekGE(key, keys.MaxSeq) }

// Next advances to the following entry.
func (it *Iterator) Next() {
	if it.n.IsNil() {
		return
	}
	it.n = it.l.Next(nil, it.n)
}

// Key returns the current user key (aliases arena memory).
func (it *Iterator) Key() []byte { return it.n.Key() }

// Value returns the current value (aliases arena memory).
func (it *Iterator) Value() []byte { return it.n.Value() }

// Seq returns the current sequence number.
func (it *Iterator) Seq() uint64 { return it.n.Seq() }

// Kind returns the current entry kind.
func (it *Iterator) Kind() keys.Kind { return it.n.Kind() }

// Node returns the current node reference.
func (it *Iterator) Node() Node { return it.n }

// Swizzle rewrites every tower pointer of a list that was bulk-copied from
// src into dst (vaddr.Space.Clone preserves offsets), rebasing addresses
// from src's region to dst's. It returns the rebased head address.
//
// This is the paper's pointer swizzling (§4.2): after one-piece flushing,
// "all data nodes in the PMTable have the same address offset relative to
// the MemTable. We can update all pointers in the PMTable according to the
// relative address." It runs in the background; the copied list is not
// published to readers until Swizzle returns. Each rewritten pointer is an
// 8-byte metered NVM write; the whole pass settles with the device once.
func Swizzle(dst, src *vaddr.Region, oldHead vaddr.Addr) vaddr.Addr {
	var w Walk
	head := vaddr.Rebase(oldHead, src, dst)
	for cur := head; !cur.IsNil(); {
		n := resolve(dst, cur)
		for i, height := 0, n.Height(); i < height; i++ {
			old := vaddr.Addr(n.mem.Uint64(slotOff(i)))
			if nw := vaddr.Rebase(old, src, dst); nw != old {
				w.setNext(n, i, nw)
			}
		}
		cur = vaddr.Addr(n.mem.Uint64(slotOff(0))) // level-0 next, already rebased
	}
	w.Done()
	return head
}
