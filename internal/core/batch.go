package core

import (
	"bytes"
	"fmt"
	"time"

	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/stats"
)

// Batch collects writes for atomic application: either every operation in
// the batch becomes visible (and durable in the WAL) or — across a crash —
// none or a prefix-free subset never happens, because all records land in
// the log before any is acknowledged. Batches also amortize the write
// path's locking over many operations.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	key, value []byte
	kind       keys.Kind
}

// Put queues a key-value write.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		kind:  keys.KindSet,
	})
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{
		key:  append([]byte(nil), key...),
		kind: keys.KindDelete,
	})
}

// DeleteRange queues a range tombstone deleting every key k with
// start ≤ k < end (empty end = unbounded; see DB.DeleteRange). An empty
// range queues nothing.
func (b *Batch) DeleteRange(start, end []byte) {
	if len(end) > 0 && bytes.Compare(start, end) >= 0 {
		return // empty range
	}
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), start...),
		value: append([]byte(nil), end...),
		kind:  keys.KindRangeDelete,
	})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Each calls fn for every queued operation in order. The key and value
// slices alias the batch's internal copies and must not be mutated or
// retained past the callback. For a range delete, key/value carry the
// [start, end) bounds. The shard router uses it to hand a batch to its
// one split by routing hash without re-copying the payload.
func (b *Batch) Each(fn func(key, value []byte, del, rangeDel bool)) {
	for _, op := range b.ops {
		fn(op.key, op.value, op.kind == keys.KindDelete, op.kind == keys.KindRangeDelete)
	}
}

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Write applies a batch as one commit: all operations receive
// consecutive sequence numbers, are framed into a single WAL append, and
// are inserted into the memtable together. A reader either sees none of
// the batch or a consistent prefix while it is being inserted, and all of
// it afterwards.
func (db *DB) Write(b *Batch) error {
	if b == nil {
		return nil
	}
	return db.commitBatch(b.ops)
}

// WriteBatch applies a batch given as kvstore operations — the adapter
// the network server's MPUT handler and the harness feed. The key and
// value slices are referenced, not copied, and consumed synchronously;
// callers may reuse them after return.
func (db *DB) WriteBatch(ops []kvstore.BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	bops := make([]batchOp, 0, len(ops))
	for _, op := range ops {
		switch {
		case op.RangeDelete:
			if len(op.Value) > 0 && bytes.Compare(op.Key, op.Value) >= 0 {
				continue // empty range — matches DeleteRange's no-op
			}
			bops = append(bops, batchOp{key: op.Key, value: op.Value, kind: keys.KindRangeDelete})
		case op.Delete:
			bops = append(bops, batchOp{key: op.Key, kind: keys.KindDelete})
		default:
			bops = append(bops, batchOp{key: op.Key, value: op.Value, kind: keys.KindSet})
		}
	}
	return db.commitBatch(bops)
}

// commitBatch is the one batch commit behind Write and WriteBatch: it
// refuses the whole batch on an empty key, commits it, and records one
// OpCommit sample per batch.
func (db *DB) commitBatch(bops []batchOp) error {
	if len(bops) == 0 {
		return nil
	}
	for _, op := range bops {
		// Range deletes are exempt: an empty start means "from the first
		// key" (the end rides in value and may be empty = unbounded).
		if len(op.key) == 0 && op.kind != keys.KindRangeDelete {
			return fmt.Errorf("miodb: empty key in batch")
		}
	}
	start := time.Now()
	_, err := db.commit(batchOp{}, bops)
	if err == nil {
		// One commit sample per batch (on top of commit's per-record
		// put/delete samples): the latency an MPUT caller experienced.
		db.st.RecordOp(stats.OpCommit, time.Since(start))
	}
	return err
}
