// Package kvstore defines the store interface shared by MioDB and the
// three baselines (LevelDB-style, NoveLSM, MatrixKV), so the benchmark
// harness drives all four identically, and the sentinel errors they share.
package kvstore

import (
	"errors"

	"miodb/internal/stats"
)

// ErrNotFound is returned by Get when a key has no live value.
var ErrNotFound = errors.New("kvstore: not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: closed")

// ErrDegraded wraps the first background failure once a store has latched
// itself read-only. The message keeps the engine's historical wording so
// it round-trips the network protocol's error payloads unchanged.
var ErrDegraded = errors.New("miodb: store degraded to read-only after background error")

// ErrSnapshotUnsupported is returned by snapshot capture on stores that
// cannot pin long-lived consistent views (SSD-mode stores).
var ErrSnapshotUnsupported = errors.New("miodb: snapshots are not supported on SSD-mode stores")

// ErrValueLogCorrupt reports a value-log pointer that failed to resolve:
// an unknown segment, an out-of-bounds address, or a checksum mismatch —
// an invariant violation, not an expected runtime condition.
var ErrValueLogCorrupt = errors.New("vlog: value log corrupt")

// BatchOp is one operation inside a client batch: a put, a delete when
// Delete is set (Value is ignored), or a range delete when RangeDelete is
// set — then Key is the inclusive start and Value the exclusive end of
// the range (empty end = unbounded).
type BatchOp struct {
	Key, Value  []byte
	Delete      bool
	RangeDelete bool
}

// BatchWriter is implemented by stores that can apply a whole batch of
// operations in one commit (one WAL append, consecutive sequence
// numbers). The network server and harness feed multi-op requests
// through it when available and fall back to per-op Puts otherwise.
type BatchWriter interface {
	WriteBatch(ops []BatchOp) error
}

// RangeDeleter is implemented by stores that support O(1) logical range
// deletion: every key k with start ≤ k < end (end empty = unbounded) is
// deleted in one operation.
type RangeDeleter interface {
	DeleteRange(start, end []byte) error
}

// MultiGetter is implemented by stores that answer several point lookups
// in one mutually-consistent operation. Results are positional: values[i]
// and errs[i] answer keys[i] (ErrNotFound per missing key).
type MultiGetter interface {
	GetMulti(keys [][]byte) ([][]byte, []error)
}

// SnapshotView is a long-lived consistent read-only view of a store:
// every read answers exactly as of capture time, no matter how many
// writes happen afterwards. Callers must Close the view to let the
// store reclaim superseded memory.
type SnapshotView interface {
	// Get returns the value key had at capture, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// GetMulti reads several keys from the cut, positionally; all
	// answers are mutually consistent.
	GetMulti(keys [][]byte) ([][]byte, []error)
	// Scan calls fn for up to limit keys ≥ start as of capture, in
	// order; fn returning false stops early. limit ≤ 0 means no limit.
	Scan(start []byte, limit int, fn func(key, value []byte) bool) error
	// Close releases the view. Idempotent.
	Close() error
}

// Snapshotter is implemented by stores that can capture consistent
// point-in-time views. The network server exposes it as the SNAP family
// of protocol ops.
type Snapshotter interface {
	SnapshotView() (SnapshotView, error)
}

// Store is the uniform surface the benchmark harness drives.
type Store interface {
	// Put stores a key-value pair.
	Put(key, value []byte) error
	// Get returns the newest live value or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Delete removes a key.
	Delete(key []byte) error
	// Scan calls fn for up to limit live keys ≥ start in order; fn
	// returning false stops early. limit ≤ 0 means unbounded.
	Scan(start []byte, limit int, fn func(key, value []byte) bool) error
	// Flush forces buffered data out and drains background work.
	Flush() error
	// Stats returns cost accounting with device traffic attached.
	Stats() stats.Snapshot
	// Close shuts the store down.
	Close() error
}
