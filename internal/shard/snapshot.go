package shard

import (
	"miodb/internal/core"
	"miodb/internal/iterx"
	"miodb/internal/kvstore"
)

// Snapshot is a consistent cross-shard cut: one core.Snapshot per shard,
// captured by core.SnapshotAll with every shard's commit lock held in
// shard-index order before any bound is read. A multi-shard batch is
// therefore either entirely inside the cut or entirely outside — the
// guarantee a plain Router.Scan (per-shard pins taken one after another)
// cannot give. Reads route exactly like the live Router's; the cut stays
// valid no matter how many writes, flushes, or compactions follow. Close
// it (and every iterator derived from it) to let reclamation resume — a
// leaked snapshot blocks every shard's Close.
type Snapshot struct {
	r     *Router
	snaps []*core.Snapshot // indexed by shard
}

// Snapshot captures a consistent cut across all shards. O(shards): no
// data is copied, no flush is forced. Returns
// core.ErrSnapshotUnsupported on SSD-mode stores. Capture excludes
// multi-shard batches mid-commit (cutMu), then takes every shard's
// commit lock before reading any bound, so the cut never tears a batch.
func (r *Router) Snapshot() (*Snapshot, error) {
	r.cutMu.Lock()
	defer r.cutMu.Unlock()
	snaps, err := core.SnapshotAll(r.shards)
	if err != nil {
		return nil, err
	}
	return &Snapshot{r: r, snaps: snaps}, nil
}

// SnapshotView adapts the cross-shard Snapshot to the kvstore capability
// interface the network server probes for.
func (r *Router) SnapshotView() (kvstore.SnapshotView, error) {
	s, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Get returns the value key had at capture, from the key's shard.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return s.snaps[shardOf(key, len(s.snaps))].Get(key)
}

// GetMulti reads several keys from the cut, grouped by shard and fetched
// shard-concurrently. Results are positional: values[i] / errs[i] answer
// keys[i]. All answers come from the same capture, so they are mutually
// consistent across shards.
func (s *Snapshot) GetMulti(getKeys [][]byte) ([][]byte, []error) {
	return getMulti(len(s.snaps), getKeys, func(i int, group [][]byte) ([][]byte, []error) {
		return s.snaps[i].GetMulti(group)
	})
}

// NewIterator walks the cut's live keys across every shard in one
// globally ordered stream, through the shared k-way merge heap. The
// per-shard sub-iterators each hold a reference on their core snapshot,
// so the iterator stays valid even if the Snapshot is closed first; it
// must itself be Closed before the stores shut down.
func (s *Snapshot) NewIterator() *Iterator {
	subs := make([]*core.Iterator, len(s.snaps))
	for i, snap := range s.snaps {
		subs[i] = snap.NewIterator()
	}
	return newIterator(subs)
}

// Scan calls fn for up to limit keys ≥ start as they existed at capture,
// in global order across all shards; fn returning false stops early.
// limit ≤ 0 scans to the end. It returns the iterator's error, including
// one a shard raised mid-scan.
func (s *Snapshot) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	it := s.NewIterator()
	defer it.Close()
	return iterx.Scan(it, start, limit, fn)
}

// Close releases every shard's snapshot. Iterators already derived stay
// valid until their own Close. Idempotent.
func (s *Snapshot) Close() error {
	var first error
	for _, snap := range s.snaps {
		if err := snap.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
