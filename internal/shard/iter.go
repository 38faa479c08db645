package shard

import (
	"miodb/internal/core"
	"miodb/internal/iterx"
	"miodb/internal/keys"
)

// coreIterSource lifts a *core.Iterator into the iterx.Iterator contract
// so the router reuses the shared k-way merge heap. A core iterator is
// already user-visible — deduplicated per key, tombstones hidden — and
// shards partition the keyspace, so no two sources ever yield the same
// key; merge order depends only on Key(), and Seq/Kind are stubbed.
type coreIterSource struct{ it *core.Iterator }

func (s coreIterSource) SeekToFirst()    { s.it.SeekToFirst() }
func (s coreIterSource) Seek(key []byte) { s.it.Seek(key) }
func (s coreIterSource) Next()           { s.it.Next() }
func (s coreIterSource) Valid() bool     { return s.it.Valid() }
func (s coreIterSource) Key() []byte     { return s.it.Key() }
func (s coreIterSource) Value() []byte   { return s.it.Value() }
func (s coreIterSource) Seq() uint64     { return 0 }
func (s coreIterSource) Kind() keys.Kind { return keys.KindSet }

var _ iterx.Iterator = coreIterSource{}

// Iterator walks the live keys of every shard in one globally ordered
// stream. Each per-shard iterator pins that shard's version snapshot
// (an epoch pin), so the view is consistent per shard but not a single
// cross-shard cut: a write racing the iterator's creation may be visible
// on one shard and not on another. Callers must Close it to release the
// per-shard pins — a leaked iterator blocks every shard's Close.
type Iterator struct {
	subs []*core.Iterator
	it   *iterx.Merging
	err  error
}

// NewIterator opens one iterator per shard and merges them through the
// k-way heap.
func (r *Router) NewIterator() *Iterator {
	subs := make([]*core.Iterator, len(r.shards))
	for i, db := range r.shards {
		subs[i] = db.NewIterator()
	}
	return newIterator(subs)
}

// newIterator merges per-shard iterators, the live router's or a cut's.
func newIterator(subs []*core.Iterator) *Iterator {
	srcs := make([]iterx.Iterator, len(subs))
	for i, sub := range subs {
		srcs[i] = coreIterSource{sub}
	}
	return &Iterator{subs: subs, it: iterx.NewMerging(srcs...)}
}

// SeekToFirst positions at the globally first live key.
func (it *Iterator) SeekToFirst() { it.it.SeekToFirst() }

// Seek positions at the first live key ≥ key.
func (it *Iterator) Seek(key []byte) { it.it.Seek(key) }

// Next advances to the next live key in global order.
func (it *Iterator) Next() { it.it.Next() }

// Valid reports whether the iterator is positioned.
func (it *Iterator) Valid() bool { return it.it.Valid() }

// Key returns the current key (valid until Next/Close).
func (it *Iterator) Key() []byte { return it.it.Key() }

// Value returns the current value (valid until Next/Close).
func (it *Iterator) Value() []byte { return it.it.Value() }

// Err returns the iterator's sticky error: the first shard iterator's
// error by shard index — ErrClosed when a shard was already closed at
// creation, or an error a shard raised mid-walk, such as a value-log
// pointer that failed to resolve.
func (it *Iterator) Err() error {
	for i := 0; it.err == nil && i < len(it.subs); i++ {
		it.err = it.subs[i].Err()
	}
	return it.err
}

// Close releases every shard's version pin.
func (it *Iterator) Close() {
	for _, sub := range it.subs {
		sub.Close()
	}
}
