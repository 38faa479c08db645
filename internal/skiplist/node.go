// Package skiplist implements the arena-resident skip list used everywhere
// in the store: DRAM MemTables, persistent PMTables in the simulated NVM,
// the huge bottom-level repository, and NoveLSM's big NVM memtable.
//
// Nodes live inside vaddr regions and link to each other with 64-bit
// virtual addresses, never Go pointers, so a list survives being bulk-copied
// between devices (one-piece flushing) and its nodes can be re-linked into
// another list without moving bytes (zero-copy compaction). Entries order by
// (user key ascending, sequence descending) — see package keys.
//
// Concurrency model, matching LevelDB's memtable and the paper's PMTables:
// one writer at a time per list, any number of lock-free readers. Writers
// publish nodes with 8-byte atomic stores bottom-up; readers traverse with
// atomic loads. Removal never modifies the removed node's own towers, so a
// reader standing on an unlinked node keeps a valid path forward.
//
// A Node is a reference resolved once: List.Node looks the address's chunk
// up and keeps a pointer to the node's first byte and the bytes left in
// the chunk (a vaddr.Span) beside the region and the address. Header,
// sequence, tower, key and value are read through it at checked offsets,
// so a search pays one chunk lookup per node it compares, not one per
// field. The region stays in the reference for what is not memory: the
// device meter every access is charged to.
package skiplist

import (
	"fmt"

	"miodb/internal/keys"
	"miodb/internal/vaddr"
)

// MaxHeight bounds tower height. With p = 1/4 branching, 18 levels index
// ~4^18 ≈ 6.9×10¹⁰ entries — far beyond any simulated dataset.
const MaxHeight = 18

// Node layout inside an arena (all fields 8-byte aligned):
//
//	word 0  meta:   height(8) | kind(8) | keyLen(16) | valLen(24) | unused(8)
//	word 1  seq:    sequence number
//	word 2…2+h-1    next[level] — atomic vaddr.Addr links
//	…               key bytes, padded to 8
//	…               value bytes, padded to 8
const (
	metaOff  = 0
	seqOff   = 8
	towerOff = 16

	maxKeyLen   = 1<<16 - 1
	maxValueLen = 1<<24 - 1
)

func packMeta(height int, kind keys.Kind, keyLen, valLen int) uint64 {
	return uint64(height) |
		uint64(kind)<<8 |
		uint64(keyLen)<<16 |
		uint64(valLen)<<32
}

// Node is a resolved reference to a skip-list node: the owning region, the
// node's virtual address, and the node's memory — its chunk looked up once,
// when the reference is made (List.Node), so that a search comparing the
// node reads header, sequence, key and tower through one resolution. Every
// field access is still checked against the chunk's end. Node is
// comparable (splices compare entries); the zero Node is the nil node.
type Node struct {
	region *vaddr.Region
	addr   vaddr.Addr
	mem    vaddr.Span
}

// resolve makes the reference for the node at a in r.
func resolve(r *vaddr.Region, a vaddr.Addr) Node {
	return Node{region: r, addr: a, mem: r.Span(a)}
}

// IsNil reports whether n is the nil node.
func (n Node) IsNil() bool { return n.addr.IsNil() }

// Addr returns the node's virtual address.
func (n Node) Addr() vaddr.Addr { return n.addr }

func (n Node) meta() uint64 { return n.mem.Uint64(metaOff) }

// Height returns the tower height.
func (n Node) Height() int { return int(n.meta() & 0xff) }

// Kind returns the entry kind (set or tombstone).
func (n Node) Kind() keys.Kind { return keys.Kind(n.meta() >> 8 & 0xff) }

// KeyLen returns the user-key length in bytes.
func (n Node) KeyLen() int { return int(n.meta() >> 16 & 0xffff) }

// ValueLen returns the value length in bytes.
func (n Node) ValueLen() int { return int(n.meta() >> 32 & 0xffffff) }

// Seq returns the sequence number.
func (n Node) Seq() uint64 { return n.mem.Uint64(seqOff) }

// slotOff returns the node-relative offset of the level-th next pointer;
// the key bytes follow the last slot, at slotOff(height).
func slotOff(level int) int { return towerOff + level*8 }

// Key returns the user key, charging the device a read of the key bytes.
// The slice aliases arena memory and must not be retained across region
// release.
func (n Node) Key() []byte { return (*Walk)(nil).Key(n) }

// Value returns the value bytes, charging the device for the read.
func (n Node) Value() []byte { return (*Walk)(nil).Value(n) }

// Size returns the node's total footprint in bytes.
func (n Node) Size() int64 {
	m := n.meta()
	h, kl, vl := int(m&0xff), int(m>>16&0xffff), int(m>>32&0xffffff)
	return nodeSize(h, kl, vl)
}

// NextAddr returns the level-th successor address — exported for readers
// that chase pointers themselves (pmtable.SafeIterator, level 0) and for
// tests that compare lists link by link.
func (n Node) NextAddr(level int) vaddr.Addr { return n.nextAddr(level) }

// nextAddr atomically loads the level-th successor address, charging an
// 8-byte device read (one pointer chase in NVM).
func (n Node) nextAddr(level int) vaddr.Addr { return (*Walk)(nil).next(n, level) }

// Walk tallies the device accesses of one multi-step piece of work — a
// search descending the towers, one node's migration in a merge, one
// entry's absorb, a flush's swizzle — and settles them with the device
// once, when the piece ends (Done). Per access it counts exactly what the
// single-access forms charge: one 8-byte read per pointer chased, one read
// of the key or value bytes per key compared or value fetched, one 8-byte
// write per pointer stored, one write of its size per node filled. So the
// device totals are those of per-access charging; only the number of trips
// to the device's shared counters changes, and a drain makes them between
// its reader-visible windows instead of inside them. Stores are therefore
// charged after they are made.
//
// A nil *Walk is the single-access form: every access charges as it
// happens. A list whose nodes sit on more than one meter settles whenever
// the walk crosses from one to the other; the meters are compared only
// when the region changes, which within one table is almost never.
//
// A meter that implements ChargeEachAccess is charged access by access,
// each before it is made, as under a nil Walk. That is the seam crash
// tests cut the power through — before each individual pointer store of a
// whole merge — and the reference exactness tests hold a tallied drain to.
// It is looked for once, when the walk meets the meter.
type Walk struct {
	region *vaddr.Region // whose meter is the one below; nil while each
	meter  vaddr.Meter
	each   bool // meter asked to be charged per access

	reads, readBytes   int
	writes, writeBytes int
}

// EachAccessMeter is the optional interface a vaddr.Meter implements to be
// charged per access by every Walk, never in a tally.
type EachAccessMeter interface{ ChargeEachAccess() }

// load counts an n-byte read of r, about to be made.
func (w *Walk) load(r *vaddr.Region, n int) {
	if w == nil || r != w.region {
		w.slow(r, n, false)
		return
	}
	w.reads++
	w.readBytes += n
}

// store counts an n-byte write to r, about to be made.
func (w *Walk) store(r *vaddr.Region, n int) {
	if w == nil || r != w.region {
		w.slow(r, n, true)
		return
	}
	w.writes++
	w.writeBytes += n
}

// slow is the access that cannot just be added to the tally: there is no
// tally, or the region is not the one last counted on. (It repeats the two
// increments so that load and store stay within the inlining budget.)
func (w *Walk) slow(r *vaddr.Region, n int, write bool) {
	m := r.Meter()
	if w != nil && m != w.meter {
		w.Done()
		w.meter, w.region = m, nil
		_, w.each = m.(EachAccessMeter)
	}
	if w == nil || w.each {
		if m == nil {
			return
		}
		if write {
			m.OnWrite(n)
		} else {
			m.OnRead(n)
		}
		return
	}
	w.region = r
	if write {
		w.writes++
		w.writeBytes += n
	} else {
		w.reads++
		w.readBytes += n
	}
}

// Done settles the tally; the walk may be reused afterwards.
func (w *Walk) Done() {
	if w.meter != nil {
		if w.reads > 0 {
			w.meter.OnReads(w.reads, w.readBytes)
		}
		if w.writes > 0 {
			w.meter.OnWrites(w.writes, w.writeBytes)
		}
	}
	w.reads, w.readBytes, w.writes, w.writeBytes = 0, 0, 0, 0
}

// next loads n's level-th successor address: one pointer chase.
func (w *Walk) next(n Node, level int) vaddr.Addr {
	w.load(n.region, 8)
	return vaddr.Addr(n.mem.Load64(slotOff(level)))
}

// Key is Node.Key counted on w.
func (w *Walk) Key(n Node) []byte {
	m := n.meta()
	h, kl := int(m&0xff), int(m>>16&0xffff)
	w.load(n.region, kl)
	return n.mem.Bytes(slotOff(h), kl)
}

// Value is Node.Value counted on w.
func (w *Walk) Value(n Node) []byte {
	m := n.meta()
	h, kl, vl := int(m&0xff), int(m>>16&0xffff), int(m>>32&0xffffff)
	w.load(n.region, vl)
	return n.mem.Bytes(slotOff(h)+int(pad8(kl)), vl)
}

// setNext atomically publishes n's level-th successor (an 8-byte NVM
// write — the unit of zero-copy compaction traffic).
func (w *Walk) setNext(n Node, level int, v vaddr.Addr) {
	w.store(n.region, 8)
	n.mem.Store64(slotOff(level), uint64(v))
}

// Store64 atomically stores v to the word at (the resolved address of a
// word of r), counted on w as the 8-byte write Region.Store64 charges. A
// merge persists its insertion mark with it.
func (w *Walk) Store64(r *vaddr.Region, at vaddr.Span, v uint64) {
	w.store(r, 8)
	at.Store64(0, v)
}

// initNext initializes a tower slot on an unpublished node without
// metering an extra write (the node fill was charged in bulk).
func (n Node) initNext(level int, v vaddr.Addr) {
	n.mem.PutUint64(slotOff(level), uint64(v))
}

func nodeSize(height, keyLen, valLen int) int64 {
	return towerOff + int64(height)*8 + pad8(keyLen) + pad8(valLen)
}

func pad8(n int) int64 { return int64(n+7) &^ 7 }

func validateKV(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("skiplist: empty key")
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("skiplist: key length %d exceeds max %d", len(key), maxKeyLen)
	}
	if len(value) > maxValueLen {
		return fmt.Errorf("skiplist: value length %d exceeds max %d", len(value), maxValueLen)
	}
	return nil
}
