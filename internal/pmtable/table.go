// Package pmtable implements PMTables — the byte-addressable persistent
// skip lists that replace on-disk SSTables in MioDB (§4.1) — together with
// the paper's three compaction mechanisms:
//
//   - One-piece flushing (§4.2): a DRAM MemTable's whole arena is copied to
//     NVM in one bulk transfer, then its pointers are swizzled in the
//     background (Flush).
//   - Zero-copy compaction (§4.3): two PMTables merge by re-linking nodes
//     with 8-byte atomic pointer stores — no key or value bytes move — while
//     readers stay lock-free behind a seqlock validation (Merge).
//   - Lazy-copy compaction (§4.4): the bottom level physically copies the
//     newest version of each key into a huge repository PMTable and then
//     releases the consumed arenas wholesale (Repository.Absorb).
package pmtable

import (
	"sync/atomic"

	"miodb/internal/bloom"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// Table is one PMTable: a persistent skip list in NVM plus its mergeable
// bloom filter. After zero-copy merges a table's nodes span several arenas;
// Regions tracks them all so that lazy-copy compaction can release every
// consumed arena at once.
type Table struct {
	// ID is unique per store and monotonically increasing: larger IDs hold
	// strictly newer data, the invariant level merge order relies on.
	ID uint64

	list    *skiplist.List
	filter  *bloom.Filter
	regions []*vaddr.Region

	// MinSeq and MaxSeq bound the sequence numbers inside the table.
	MinSeq, MaxSeq uint64

	// garbage counts bytes of logically deleted nodes awaiting arena
	// reclamation (the cost lazy freeing defers).
	garbage atomic.Int64

	// activeMerge points at the zero-copy merge currently draining or
	// filling this table, if any. Readers that reached the table through
	// a snapshot taken before the merge began must detect it and re-read
	// through the merge's seqlock protocol; see Table.GetSafe.
	activeMerge atomic.Pointer[Merge]

	// forward, once set, redirects every safe read to the merge result
	// that superseded this table. It is set exactly once, when the
	// table's zero-copy merge completes, and never cleared: a drained
	// table is a permanent skeleton that only stale version snapshots
	// still reference. The Old side of a merge shares its skip list and
	// its bloom filter with the result (the New filter is ORed into it
	// in place, so the skeleton's raw MayContain covers every migrated
	// key). Forwarding matters because once the result enters a later
	// merge of its own, the shared list is being migrated again; raw
	// probes through the skeleton would race that migration with no
	// mark protection. Following forward (transitively) always lands on
	// the live table, whose activeMerge state is authoritative.
	forward atomic.Pointer[Table]
}

// FilterParams sizes the per-table bloom filters; all tables in one store
// share identical parameters so filters stay OR-mergeable.
type FilterParams struct {
	// ExpectedKeys sizes the bit array (fixed for every table).
	ExpectedKeys int
	// BitsPerKey is the paper's 16 bits/key default.
	BitsPerKey int
}

// Disabled reports whether bloom filtering is turned off (the paper's
// read-optimization ablation).
func (p FilterParams) Disabled() bool { return p.BitsPerKey < 0 }

// NewFilter returns an empty filter of these parameters, nil when
// filtering is disabled. A store gives one to each memtable it opens.
func (p FilterParams) NewFilter() *bloom.Filter {
	if p.Disabled() {
		return nil
	}
	return bloom.New(p.ExpectedKeys, p.BitsPerKey)
}

// Flush performs a one-piece flush of an immutable MemTable to the NVM
// device and returns the resulting L0 PMTable:
//
//  1. the memtable's DRAM arena is cloned to NVM as a single bulk copy,
//  2. every pointer in the copy is swizzled to the new arena's addresses
//     (offsets are identical, only the region base changes — §4.2's
//     "relative address" observation).
//
// The table's bloom filter is the memtable's own, filled key by key as
// the entries arrived (memtable.NewFiltered; it must have been made with
// fp), so the flush reads no key to build one. Only an unfiltered
// memtable costs a list walk that builds the filter from fp.
//
// Both steps run on the caller (a background flusher goroutine); the
// original memtable keeps serving reads until the caller retires it.
func Flush(dev *nvm.Device, mt *memtable.MemTable, id uint64, minSeq, maxSeq uint64, fp FilterParams) *Table {
	src := mt.Region()
	dst := dev.Clone(src)
	head := skiplist.Swizzle(dst, src, mt.List().Head())
	list := skiplist.Attach(dev.Space(), head, nil)
	list.SetCount(mt.Count())
	list.AddUserBytes(mt.UserBytes())

	filter := mt.Filter()
	if filter == nil && !fp.Disabled() {
		// One walk, one device charge for all its key reads.
		filter = fp.NewFilter()
		var w skiplist.Walk
		for n := list.First(&w); !n.IsNil(); n = list.Next(&w, n) {
			filter.Add(w.Key(n))
		}
		w.Done()
	}
	return &Table{
		ID:      id,
		list:    list,
		filter:  filter,
		regions: []*vaddr.Region{dst},
		MinSeq:  minSeq,
		MaxSeq:  maxSeq,
	}
}

// Attach reconstructs a Table over an existing list head (recovery path).
func Attach(space *vaddr.Space, head vaddr.Addr, id uint64, regions []*vaddr.Region, fp FilterParams) *Table {
	list := skiplist.Attach(space, head, nil)
	filter := fp.NewFilter()
	count := int64(0)
	var minSeq, maxSeq uint64 = keys.MaxSeq, 0
	var w skiplist.Walk
	for n := list.First(&w); !n.IsNil(); n = list.Next(&w, n) {
		if filter != nil {
			filter.Add(w.Key(n))
		}
		count++
		if s := n.Seq(); s < minSeq {
			minSeq = s
		}
		if s := n.Seq(); s > maxSeq {
			maxSeq = s
		}
	}
	w.Done()
	list.SetCount(count)
	return &Table{
		ID:      id,
		list:    list,
		filter:  filter,
		regions: regions,
		MinSeq:  minSeq,
		MaxSeq:  maxSeq,
	}
}

// SetActiveMerge publishes the merge this table is participating in. The
// engine calls it under its structural lock before the first node
// migrates. It is never cleared: completion is published by SetForward
// instead, so stale readers can never observe a drained table that looks
// like a plain one (raw list reads would be fine, but the Old side's
// original bloom filter does not cover nodes the merge migrated in).
func (t *Table) SetActiveMerge(m *Merge) { t.activeMerge.Store(m) }

// ActiveMerge returns the in-flight merge touching this table, if any.
func (t *Table) ActiveMerge() *Merge { return t.activeMerge.Load() }

// SetForward publishes the merge result that supersedes this table. The
// engine calls it under its structural lock after installing the result;
// from then on every safe read through this table delegates to the
// result. Set exactly once, never cleared.
func (t *Table) SetForward(result *Table) { t.forward.Store(result) }

// Forward returns the superseding merge result, if this table has been
// drained by a completed merge.
func (t *Table) Forward() *Table { return t.forward.Load() }

// GetSafe returns the newest version of key in the table; it is
// GetBoundedSafe at keys.MaxSeq.
func (t *Table) GetSafe(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	return t.GetBoundedSafe(key, keys.MaxSeq)
}

// GetBoundedSafe returns the newest version of key with sequence ≤ maxSeq,
// hardened against a concurrently starting zero-copy merge. A reader whose
// structural snapshot predates the merge sees this table as a plain table;
// probing it raw could miss the run in flight between the pair. The
// protocol:
//
//  1. if a completed merge has superseded this table, delegate to the
//     result (whose filter and merge state are authoritative — see the
//     forward field);
//  2. if a merge is already published, delegate to its Get;
//  3. otherwise probe raw, then re-check: the merger publishes the merge
//     (an atomic store) strictly before the first migration's atomic
//     pointer stores, so a raw probe that could have observed any
//     migration effect will observe the published merge on the re-check
//     (Go's atomics give acquire/release ordering) — and retries through
//     the protocol. A probe that sees no merge on the re-check ran
//     entirely against pre-merge state and is correct as is.
func (t *Table) GetBoundedSafe(key []byte, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	if f := t.Forward(); f != nil {
		return f.GetBoundedSafe(key, maxSeq)
	}
	if m := t.ActiveMerge(); m != nil {
		return m.Get(key, maxSeq)
	}
	value, seq, kind, ok = t.list.GetBounded(key, maxSeq)
	if m := t.ActiveMerge(); m != nil {
		return m.Get(key, maxSeq)
	}
	return value, seq, kind, ok
}

// MayContain consults the table's bloom filter; with filtering disabled
// every probe must fall through to the list search.
func (t *Table) MayContain(key []byte) bool { return t.filter == nil || t.filter.MayContain(key) }

// mayContainHash is MayContain for a key hashed with bloom.Hash.
func (t *Table) mayContainHash(h uint64) bool {
	return t.filter == nil || t.filter.MayContainHash(h)
}

// MayContainSafe is the filter probe matching GetSafe's protocol: a
// drained table answers with its successor's (merged) filter, a merging
// table with the union of the pair's filters.
func (t *Table) MayContainSafe(key []byte) bool { return t.MayContainSafeHash(bloom.Hash(key)) }

// MayContainSafeHash is MayContainSafe for a key hashed with bloom.Hash:
// a point read hashes its key once for every filter it probes.
func (t *Table) MayContainSafeHash(h uint64) bool {
	if f := t.Forward(); f != nil {
		return f.MayContainSafeHash(h)
	}
	if m := t.ActiveMerge(); m != nil {
		return m.MayContainHash(h)
	}
	return t.mayContainHash(h)
}

// Count returns the number of live entries.
func (t *Table) Count() int64 { return t.list.Count() }

// UserBytes returns key+value payload bytes held.
func (t *Table) UserBytes() int64 { return t.list.UserBytes() }

// Garbage returns bytes of logically deleted nodes pending reclamation.
func (t *Table) Garbage() int64 { return t.garbage.Load() }

// List exposes the underlying skip list.
func (t *Table) List() *skiplist.List { return t.list }

// Filter exposes the bloom filter (read-only for callers).
func (t *Table) Filter() *bloom.Filter { return t.filter }

// Regions returns the arenas whose nodes this table references.
func (t *Table) Regions() []*vaddr.Region { return t.regions }

// NewIterator iterates the table in internal-key order.
func (t *Table) NewIterator() *skiplist.Iterator { return t.list.NewIterator() }

// ReleaseRegions returns every arena to the device. The caller must
// guarantee quiescence (the store's version reference counting does).
func (t *Table) ReleaseRegions(dev *nvm.Device) {
	for _, r := range t.regions {
		dev.Release(r)
	}
	t.regions = nil
}

// DropRegions severs the table's region ownership without releasing the
// arenas — used after a zero-copy merge transfers ownership to the merged
// result. Callers serialize it against Regions() readers (the engine's
// structural lock).
func (t *Table) DropRegions() { t.regions = nil }
