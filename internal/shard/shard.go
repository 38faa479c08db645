// Package shard hash-partitions the keyspace over N independent MioDB
// engines, the standard route to multi-core write and read scaling once a
// single engine's front end (one MemTable, one WAL, one commit lock)
// becomes the ceiling. Each shard is a full core.DB — its own DRAM
// MemTable, WAL, elastic-buffer levels, compaction threads, and
// repository — so shards share nothing and scale independently; the
// Router in front of them is stateless apart from the shard table.
//
// Semantics relative to a single engine:
//
//   - Point operations (Put/Get/Delete) are indistinguishable: each key
//     lives on exactly one shard, chosen by a stable hash of its bytes.
//   - Write batches are split by routing hash and applied per shard.
//     Atomicity holds per shard (each shard's slice of the batch commits
//     with one WAL append and consecutive sequence numbers); there is no
//     cross-shard atomicity — a crash can surface some shards' slices
//     without others'.
//   - Scan/NewIterator merge the per-shard iterators through the shared
//     k-way heap (internal/iterx); shards partition the keyspace, so the
//     merged stream is globally ordered with no duplicate keys.
//   - Stats aggregates per-shard snapshots (stats.Aggregate) and keeps
//     the per-shard breakdown in Snapshot.Shards.
//   - Err latches the first shard error observed: one degraded shard
//     refuses writes for its slice of the keyspace while healthy shards
//     keep serving theirs.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"miodb/internal/core"
	"miodb/internal/iterx"
	"miodb/internal/kvstore"
	"miodb/internal/stats"
)

// Router fronts n independent core.DB shards. All methods are safe for
// concurrent use; the router itself holds no hot shared state, so
// concurrent operations on different shards never contend.
type Router struct {
	shards []*core.DB
	// firstErr latches the first shard error Err observes, so repeated
	// calls keep reporting one stable cause even if more shards degrade.
	firstErr atomic.Pointer[error]
	// gov is the adaptive memory governor (OpenGoverned); nil on a
	// static router — no goroutine, no target ever moved.
	gov *governor
	// cutMu orders multi-shard commits against cross-shard snapshot
	// capture. A batch that touches several shards (or a broadcast range
	// delete) holds the read side across all of its per-shard commits;
	// Snapshot holds the write side while it captures every shard's
	// bound. Without it a capture could land between one batch's
	// per-shard commits and see a torn cut. Single-shard operations never
	// touch it — their commit is atomic under the one shard's commit
	// lock, which SnapshotAll already holds during capture.
	cutMu sync.RWMutex
}

// Open creates a router over n fresh shards, each configured with opts
// (sizes are per shard: n shards of a 64 KB MemTable hold 64·n KB of
// buffered writes in total). n must be at least 1.
func Open(n int, opts core.Options) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("miodb/shard: shard count %d out of range (need ≥ 1)", n)
	}
	r := &Router{shards: make([]*core.DB, 0, n)}
	for i := 0; i < n; i++ {
		db, err := core.Open(opts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("miodb/shard: open shard %d: %w", i, err)
		}
		r.shards = append(r.shards, db)
	}
	return r, nil
}

// shardOf routes a key with FNV-1a over its bytes. The hash is a pure
// function of the key, so routing is stable across processes and image
// restores — a requirement, since each shard's image only replays keys
// that hashed to it when they were written.
func shardOf(key []byte, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(n))
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard exposes one underlying engine (tests, fault injection).
func (r *Router) Shard(i int) *core.DB { return r.shards[i] }

// ShardFor returns the index key routes to.
func (r *Router) ShardFor(key []byte) int { return shardOf(key, len(r.shards)) }

// Put stores a key-value pair on the key's shard.
func (r *Router) Put(key, value []byte) error {
	return r.shards[shardOf(key, len(r.shards))].Put(key, value)
}

// Get returns the newest live value for key from its shard.
func (r *Router) Get(key []byte) ([]byte, error) {
	return r.shards[shardOf(key, len(r.shards))].Get(key)
}

// Delete writes a tombstone on the key's shard.
func (r *Router) Delete(key []byte) error {
	return r.shards[shardOf(key, len(r.shards))].Delete(key)
}

// DeleteRange deletes every key k with start ≤ k < end (empty end =
// unbounded) across all shards. A range spans hash partitions, so the
// tombstone is broadcast: each shard commits its own O(1) tombstone,
// concurrently. There is no cross-shard atomicity — on error (or a crash
// mid-broadcast) some shards may carry the tombstone while others do not,
// the same contract as a cross-shard batch.
func (r *Router) DeleteRange(start, end []byte) error {
	r.cutMu.RLock()
	defer r.cutMu.RUnlock()
	return r.each(func(db *core.DB) error { return db.DeleteRange(start, end) })
}

// GetMulti reads several keys in one operation, grouped by shard and
// fetched shard-concurrently. Results are positional: values[i] / errs[i]
// answer keys[i]. Each shard's group is answered from one pinned version
// (mutually consistent within the shard); like Scan, the combined result
// is not a single cross-shard cut — use Snapshot for that.
func (r *Router) GetMulti(getKeys [][]byte) ([][]byte, []error) {
	return getMulti(len(r.shards), getKeys, func(i int, group [][]byte) ([][]byte, []error) {
		return r.shards[i].GetMulti(group)
	})
}

// getMulti is the one multi-get fan-out, behind Router.GetMulti and
// Snapshot.GetMulti: it groups keys by routing hash, answers each group
// with get on its shard, and scatters the answers back to the keys'
// positions. Like applySplit, a single touched shard runs inline (it
// answers every key, in order); several run concurrently.
func getMulti(n int, getKeys [][]byte, get func(shard int, group [][]byte) ([][]byte, []error)) ([][]byte, []error) {
	perKeys := make([][][]byte, n)
	perIdx := make([][]int, n)
	touched, last := 0, -1
	for i, key := range getKeys {
		s := shardOf(key, n)
		if len(perKeys[s]) == 0 {
			touched++
			last = s
		}
		perKeys[s] = append(perKeys[s], key)
		perIdx[s] = append(perIdx[s], i)
	}
	if touched == 1 {
		return get(last, getKeys)
	}
	values := make([][]byte, len(getKeys))
	errs := make([]error, len(getKeys))
	var wg sync.WaitGroup
	for s, group := range perKeys {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, group [][]byte) {
			defer wg.Done()
			vs, es := get(s, group)
			for j, i := range perIdx[s] {
				values[i], errs[i] = vs[j], es[j]
			}
		}(s, group)
	}
	wg.Wait()
	return values, errs
}

// Write splits the batch by routing hash and applies each shard's slice
// as one commit on that shard, through WriteBatch. Atomicity is per
// shard: a shard's slice is logged with one WAL append and is
// all-or-nothing across a crash, but there is no cross-shard transaction
// — on error (or a crash mid apply) some shards may carry their slice
// while others do not. Shards are applied concurrently; the first error
// is returned after every touched shard has been attempted.
func (r *Router) Write(b *core.Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	ops := make([]kvstore.BatchOp, 0, b.Len())
	b.Each(func(key, value []byte, del, rangeDel bool) {
		ops = append(ops, kvstore.BatchOp{Key: key, Value: value, Delete: del, RangeDelete: rangeDel})
	})
	return r.WriteBatch(ops)
}

// WriteBatch is the router's one batch split, behind Write and the
// kvstore.BatchWriter adapter the server's MPUT and the harness feed:
// each op goes to its key's shard, and a range delete, which spans hash
// partitions, is broadcast to every shard in batch order relative to
// that shard's own ops. A batch with an empty key applies nowhere,
// matching core.DB's refusal of the whole batch.
func (r *Router) WriteBatch(ops []kvstore.BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	per := make([][]kvstore.BatchOp, len(r.shards))
	for _, op := range ops {
		if op.RangeDelete {
			for i := range per {
				per[i] = append(per[i], op)
			}
			continue
		}
		if len(op.Key) == 0 {
			return fmt.Errorf("miodb: empty key in batch")
		}
		i := shardOf(op.Key, len(r.shards))
		per[i] = append(per[i], op)
	}
	return r.applySplit(per)
}

// applySplit commits each shard's non-empty slice. A single touched
// shard commits inline (the common case for small batches); multiple
// shards commit concurrently so a cross-shard batch pays the slowest
// shard, not the sum.
func (r *Router) applySplit(per [][]kvstore.BatchOp) error {
	touched := 0
	last := -1
	for i, ops := range per {
		if len(ops) > 0 {
			touched++
			last = i
		}
	}
	switch touched {
	case 0:
		return nil
	case 1:
		return r.shards[last].WriteBatch(per[last])
	}
	// Multi-shard: hold the cut lock across all per-shard commits so a
	// concurrent Snapshot sees this batch entirely or not at all.
	r.cutMu.RLock()
	defer r.cutMu.RUnlock()
	var wg sync.WaitGroup
	errs := make([]error, len(per))
	for i, ops := range per {
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, ops []kvstore.BatchOp) {
			defer wg.Done()
			errs[i] = r.shards[i].WriteBatch(ops)
		}(i, ops)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Scan calls fn for up to limit live keys ≥ start in global order across
// all shards; fn returning false stops early. limit ≤ 0 scans to the
// end. The slices passed to fn alias store memory and are only valid
// during the callback. It returns the iterator's error, including one a
// shard raised mid-scan.
func (r *Router) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	it := r.NewIterator()
	defer it.Close()
	return iterx.Scan(it, start, limit, fn)
}

// Flush forces every shard's DRAM buffer out and waits for all
// background work to drain, shard-concurrently.
func (r *Router) Flush() error { return r.FlushAll() }

// FlushAll is Flush under the name core.DB uses.
func (r *Router) FlushAll() error {
	return r.each(func(db *core.DB) error { return db.FlushAll() })
}

// each runs fn on every shard concurrently and returns the first error
// by shard index.
func (r *Router) each(fn func(*core.DB) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.shards))
	for i, db := range r.shards {
		wg.Add(1)
		go func(i int, db *core.DB) {
			defer wg.Done()
			errs[i] = fn(db)
		}(i, db)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates every shard's snapshot: counters summed, stalls
// maxed, devices merged by name, derived rates recomputed — with the
// per-shard breakdown retained in Snapshot.Shards.
func (r *Router) Stats() stats.Snapshot {
	per := make([]stats.Snapshot, len(r.shards))
	for i, db := range r.shards {
		per[i] = db.Stats()
	}
	return stats.Aggregate(per)
}

// ResetCounters clears device and cost counters on every shard.
func (r *Router) ResetCounters() {
	for _, db := range r.shards {
		db.ResetCounters()
	}
}

// ValueLogEnabled reports whether key-value separation is active (shards
// share one configuration, so probing the first is exact).
func (r *Router) ValueLogEnabled() bool {
	return len(r.shards) > 0 && r.shards[0].ValueLogEnabled()
}

// RunValueLogGC reclaims eligible value-log segments on every shard,
// shard-concurrently, and returns the total number reclaimed.
func (r *Router) RunValueLogGC() (int, error) {
	var total atomic.Int64
	err := r.each(func(db *core.DB) error {
		n, err := db.RunValueLogGC()
		total.Add(int64(n))
		return err
	})
	return int(total.Load()), err
}

// Err reports the first latched shard error, if any. A non-nil result
// wraps core.ErrDegraded: that shard has latched itself read-only and
// refuses writes for its slice of the keyspace, while healthy shards
// keep serving theirs. The first error observed stays the reported
// cause even if further shards degrade later.
func (r *Router) Err() error {
	if p := r.firstErr.Load(); p != nil {
		return *p
	}
	for _, db := range r.shards {
		if err := db.Err(); err != nil {
			r.firstErr.CompareAndSwap(nil, &err)
			// Re-load rather than returning err directly: a concurrent
			// caller may have latched a different shard's error first,
			// and Err promises one stable answer.
			return *r.firstErr.Load()
		}
	}
	return nil
}

// WaitIdle blocks until every shard's background work has drained.
func (r *Router) WaitIdle() {
	r.each(func(db *core.DB) error { db.WaitIdle(); return nil })
}

// Close shuts every shard down, shard-concurrently. Callers must stop
// issuing operations (and Close all iterators) first. A governed router
// stops its rebalancing loop before the shards go down.
func (r *Router) Close() error {
	r.stopGovernor()
	return r.each(func(db *core.DB) error {
		if db == nil {
			return nil
		}
		return db.Close()
	})
}

// CrashForTest simulates a simultaneous power failure across all shards:
// every shard's background work is dropped mid-flight and its crash
// image captured. The router is unusable afterwards; pass the images to
// RecoverShards. Test/torture-harness use only.
func (r *Router) CrashForTest() []*core.CrashImage {
	r.stopGovernor()
	imgs := make([]*core.CrashImage, len(r.shards))
	for i, db := range r.shards {
		imgs[i] = db.CrashForTest()
	}
	return imgs
}

// RecoverShards rebuilds a router from per-shard crash images, running
// each shard through the standard crash-recovery path.
func RecoverShards(imgs []*core.CrashImage, opts core.Options) (*Router, error) {
	r := &Router{shards: make([]*core.DB, 0, len(imgs))}
	for i, img := range imgs {
		db, err := core.Recover(img, opts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("miodb/shard: recover shard %d: %w", i, err)
		}
		r.shards = append(r.shards, db)
	}
	return r, nil
}

var (
	_ kvstore.Store        = (*Router)(nil)
	_ kvstore.BatchWriter  = (*Router)(nil)
	_ kvstore.RangeDeleter = (*Router)(nil)
	_ kvstore.MultiGetter  = (*Router)(nil)
)
