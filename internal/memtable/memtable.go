// Package memtable implements the DRAM write buffer: a skip list inside a
// DRAM arena, sized so the whole arena can be flushed to NVM with a single
// bulk copy (one-piece flushing, §4.2). All stores in this repository —
// MioDB and the baselines — stage writes through this type.
package memtable

import (
	"miodb/internal/bloom"
	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// MemTable is a DRAM-resident sorted write buffer. Writers must be
// externally serialized; readers are lock-free.
//
// A filtered memtable (NewFiltered) keeps a bloom filter of every key
// added, tombstones included. Add sets a key's bits before its node is
// published, so a reader whose probe misses could not have found the key
// in the list either: the filter only ever turns away keys that are
// absent. The one writer stores each changed filter word atomically
// (bloom.Filter.Add), which is what makes the probes race-clean.
type MemTable struct {
	dev    *nvm.Device
	region *vaddr.Region
	list   *skiplist.List
	filter *bloom.Filter // nil: every Get searches the list
	limit  int64
}

// New creates a memtable with the given soft capacity. chunkSize is the
// arena's stride and bounds the largest single entry; it should comfortably
// exceed the largest value the store accepts. The arena's chunks are backed
// by Grain(capacity) bytes, not by the stride: a rotation commits what the
// memtable will fill.
func New(dev *nvm.Device, capacity int64, chunkSize int) (*MemTable, error) {
	return NewFiltered(dev, capacity, chunkSize, nil, vaddr.Spare{})
}

// NewFiltered is New with filter, which must be empty, as the memtable's
// bloom filter (nil for none), over an arena whose first chunk is spare,
// a retired arena's chunk, when spare fits the arena's stride and
// Grain(capacity, chunkSize) (vaddr.Space.NewRegionSpare); the zero Spare,
// or one that does not fit, gives a fresh chunk. The arena reads as zero
// either way. A store makes the filter with its tables' filter
// parameters, so the one-piece flush can hand it to the PMTable as is.
func NewFiltered(dev *nvm.Device, capacity int64, chunkSize int, filter *bloom.Filter, spare vaddr.Spare) (*MemTable, error) {
	region := dev.NewRegionSpare(chunkSize, Grain(capacity, chunkSize), spare)
	list, err := skiplist.New(region)
	if err != nil {
		return nil, err
	}
	return &MemTable{dev: dev, region: region, list: list, filter: filter, limit: capacity}, nil
}

// Grain returns the backing size of a memtable arena's chunks: the
// capacity plus an eighth for the entries that land after the arena first
// reads Full — the rotation check runs before each commit, not inside it —
// rounded up to 8 KiB and capped at the stride. A memtable that overshoots
// further spills into another chunk of the same grain.
func Grain(capacity int64, chunkSize int) int {
	const page = 8 << 10
	g := (capacity + capacity/8 + page - 1) &^ (page - 1)
	return int(min(g, int64(chunkSize)))
}

// Add inserts one entry: the key's filter bits first, then the node.
func (m *MemTable) Add(key, value []byte, seq uint64, kind keys.Kind) error {
	if m.filter != nil {
		m.filter.Add(key)
	}
	return m.list.Insert(key, value, seq, kind)
}

// Get returns the newest version of key in this memtable.
func (m *MemTable) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	if m.filter == nil {
		return m.list.Get(key)
	}
	return m.GetBounded(key, bloom.Hash(key), keys.MaxSeq)
}

// GetBounded returns the newest version of key with sequence ≤ maxSeq
// (snapshot reads). h is key's bloom.Hash: a point read hashes its key
// once for every buffer's and table's filter. A key the filter rules out
// is absent without a search.
func (m *MemTable) GetBounded(key []byte, h, maxSeq uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	if m.filter != nil && !m.filter.MayContainHash(h) {
		return nil, 0, 0, false
	}
	return m.list.GetBounded(key, maxSeq)
}

// Full reports whether the arena has reached its soft capacity and the
// memtable should be rotated.
func (m *MemTable) Full() bool { return m.region.Used() >= m.limit }

// ApproximateBytes returns the arena bytes consumed: the arena's Used,
// which is exactly what a one-piece flush copies and charges.
func (m *MemTable) ApproximateBytes() int64 { return m.region.Used() }

// UserBytes returns the key+value payload bytes inserted.
func (m *MemTable) UserBytes() int64 { return m.list.UserBytes() }

// Count returns the number of entries.
func (m *MemTable) Count() int64 { return m.list.Count() }

// Empty reports whether no entries have been inserted.
func (m *MemTable) Empty() bool { return m.list.Empty() }

// Filter returns the memtable's bloom filter, nil for an unfiltered one.
// Once the memtable is immutable its flush adopts the filter as the
// PMTable's.
func (m *MemTable) Filter() *bloom.Filter { return m.filter }

// List exposes the underlying skip list (for flushing and iteration).
func (m *MemTable) List() *skiplist.List { return m.list }

// Region exposes the DRAM arena (the unit of one-piece flushing).
func (m *MemTable) Region() *vaddr.Region { return m.region }

// NewIterator returns an iterator over the memtable in internal-key order.
func (m *MemTable) NewIterator() *skiplist.Iterator { return m.list.NewIterator() }

// Release frees the DRAM arena. Callers must guarantee no readers remain
// (the store's version machinery does).
func (m *MemTable) Release() { m.dev.Release(m.region) }
