package pmtable

import (
	"miodb/internal/bloom"
	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// Build physically constructs a PMTable by copying every entry from the
// iterator into a fresh NVM arena, node by node. The engine uses it for
// the ablation modes the paper argues against:
//
//   - flush without one-piece copying (each KV located and copied
//     individually — the hierarchical-NoveLSM flush of §4.2), and
//   - merging without zero-copy (a compaction that moves data, paying the
//     write amplification §4.3 eliminates).
//
// Entries must arrive in (key asc, seq desc) order; older duplicates are
// dropped so the built table holds at most one version per key, matching
// what a zero-copy merge would leave live.
//
// filter, when not nil, is adopted as the table's filter instead of one
// built from fp as the entries are copied: a flushed memtable's, which
// already covers every key it yields, so the ablated flush differs from
// the one-piece Flush only in how the entries are copied.
func Build(dev *nvm.Device, chunkSize int, it iterx.Iterator, id uint64, fp FilterParams, filter *bloom.Filter) (*Table, error) {
	region := dev.NewRegion(chunkSize)
	list, err := skiplist.New(region)
	if err != nil {
		return nil, err
	}
	built := filter == nil
	if built {
		filter = fp.NewFilter()
	}
	var minSeq, maxSeq uint64 = keys.MaxSeq, 0
	var lastKey []byte
	lastValid := false
	for it.SeekToFirst(); it.Valid(); it.Next() {
		key := it.Key()
		if lastValid && string(key) == string(lastKey) {
			continue // older version
		}
		lastKey = append(lastKey[:0], key...)
		lastValid = true
		if err := list.Insert(key, it.Value(), it.Seq(), it.Kind()); err != nil {
			return nil, err
		}
		if built && filter != nil {
			filter.Add(key)
		}
		if s := it.Seq(); s < minSeq {
			minSeq = s
		}
		if s := it.Seq(); s > maxSeq {
			maxSeq = s
		}
	}
	return &Table{
		ID:      id,
		list:    list,
		filter:  filter,
		regions: []*vaddr.Region{region},
		MinSeq:  minSeq,
		MaxSeq:  maxSeq,
	}, nil
}
