// Package miodb is a key-value store for hybrid DRAM/NVM memory systems,
// reproducing MioDB from "Revisiting Log-Structured Merging for KV Stores
// in Hybrid Memory Systems" (ASPLOS 2023).
//
// MioDB replaces the on-disk SSTables of an LSM-tree with byte-addressable
// persistent skip lists (PMTables) and rebuilds log-structured merging
// around what fast NVM makes possible:
//
//   - One-piece flushing: a full DRAM MemTable is persisted with a single
//     bulk copy plus background pointer swizzling.
//   - An elastic, unbounded multi-level NVM buffer whose levels compact by
//     zero-copy merging — pointer updates only, no data movement.
//   - Parallel per-level compaction threads, so flushing never stalls.
//   - Lazy-copy compaction into a huge bottom-level repository skip list,
//     bounding write amplification near 3× (WAL + flush + lazy copy).
//   - Mergeable bloom filters and deep levels for read performance.
//
// Beyond the paper, the store scales horizontally: Options{Shards: N}
// hash-partitions the keyspace over N independent engines (per-shard
// MemTable, WAL, and compaction pipeline) behind the same API, with
// merged scans and aggregated stats. See DESIGN.md §9.
//
// Because no NVM hardware is assumed, the store runs on a simulated
// byte-addressable NVM device with calibrated latency/bandwidth ratios and
// full traffic accounting; see DESIGN.md for the substitution argument.
//
// The read API is versioned on top of the engine's epoch substrate: every
// read — Get, GetMulti, Scan, NewIterator — runs against a pinned
// immutable version of the store, and Snapshot exposes that pin as a
// first-class handle: an O(1), arbitrarily long-lived consistent view
// (consistent across shards) that later writes, flushes, and compactions
// never disturb. DeleteRange completes the write side with O(1) logical
// range deletion via range tombstones, honored by every read path and
// reclaimed lazily by the compaction pipeline. See DESIGN.md §13.
//
// Quick start:
//
//	db, err := miodb.Open(nil)
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//
//	snap, _ := db.Snapshot()          // consistent view, O(1)
//	db.Put([]byte("k"), []byte("v2")) // invisible to snap
//	old, _ := snap.Get([]byte("k"))   // still "v"
//	snap.Close()
//
//	vals, errs := db.GetMulti([][]byte{[]byte("a"), []byte("b")})
//	_ = db.DeleteRange([]byte("user#"), []byte("user$")) // drop a prefix
//	_, _ = vals, errs
package miodb

import (
	"fmt"
	"math"
	"time"

	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/shard"
	"miodb/internal/stats"
)

// The error sentinels (ErrNotFound, ErrClosed, ErrSnapshotClosed,
// ErrSnapshotUnsupported, ErrDegraded, ErrValueLogCorrupt) live in
// errors.go.

// Options configures a store. The zero value (or nil) uses the paper's
// configuration scaled for a single machine: 64 KB MemTables, 8
// elastic-buffer levels, 16 bloom bits per key, WAL on, one shard.
//
// Open validates options and returns a descriptive error for invalid
// values (negative sizes, out-of-range level or shard counts) instead of
// silently clamping them; zero values always mean "use the default".
type Options struct {
	// MemTableSize is the DRAM write buffer capacity in bytes (per shard
	// when Shards > 1). 0 selects the default; negative or under 4 KB is
	// invalid.
	MemTableSize int64
	// Levels is the number of elastic-buffer levels (compaction threads)
	// per shard. 0 selects the default (8); otherwise it must be in
	// [2, 64].
	Levels int
	// BloomBitsPerKey sizes the per-PMTable bloom filters. 0 selects the
	// default (16); negative disables filtering (a read-path ablation).
	BloomBitsPerKey int
	// Shards hash-partitions the keyspace over this many independent
	// engines — per-shard MemTable, WAL, elastic buffer, and compaction
	// pipeline — for multi-core scaling. 0 or 1 selects the single-engine
	// path (exactly the unsharded code path); negative is invalid.
	// Write batches are atomic per shard, not across shards; see
	// DESIGN.md §9.
	Shards int
	// DisableWAL turns off write-ahead logging (data in the DRAM buffer
	// is then lost on crash).
	DisableWAL bool
	// UseSSD enables the DRAM-NVM-SSD hierarchy: the bottom repository
	// becomes leveled SSTables on a simulated SSD. Checkpoint, OpenImage
	// and Snapshot refuse SSD-mode stores rather than silently writing or
	// restoring an incomplete configuration (images hold the NVM state
	// only); DESIGN.md §7, "Feature combinations", lists every refusal.
	UseSSD bool
	// Simulate enables device latency injection so measured performance
	// reflects the modeled hardware; leave false for functional use.
	Simulate bool
	// TimeScale scales injected latencies (1.0 = full model). 0 selects
	// the default; negative is invalid.
	TimeScale float64

	// MemoryBudget is the global DRAM memtable budget in bytes, divided
	// across all shards: with Shards = N every shard's memtable starts at
	// MemoryBudget/N (overriding MemTableSize), and with one shard it is
	// simply the memtable size. 0 keeps the per-shard MemTableSize
	// semantics; negative is invalid. The budget must leave each shard at
	// least 4 KB.
	MemoryBudget int64

	// Governor enables the adaptive memory governor (requires Shards ≥
	// 2): a background loop that continuously rebalances the global
	// memtable budget across shards by write heat — hot shards grow
	// toward fewer flushes, cold shards shrink toward a floor, applied
	// only at rotation boundaries, under the budget, with hysteresis.
	// The budget is MemoryBudget when set, else Shards × the (defaulted)
	// MemTableSize, so enabling the governor never changes total memory.
	// Nil — the default — keeps today's static split byte for byte.
	// See DESIGN.md §12.
	Governor *GovernorOptions

	// ValueLog enables key-value separation: values at or above
	// ValueLogOptions.Threshold are appended to a segmented value log and
	// the LSM structure stores a compact 16-byte address in their place,
	// so flushes and compactions move pointers instead of value bytes —
	// the write-amplification win WiscKey-style separation is known for.
	// Dead log space is garbage-collected by relocating still-live values,
	// with reclamation deferred past every open snapshot and in-flight
	// read. Nil — the default — keeps the engine byte-for-byte
	// value-inline. See DESIGN.md §14.
	ValueLog *ValueLogOptions

	// Admission once enabled backlog-aware write admission control.
	//
	// Deprecated: admission control has been removed; writers never wait
	// on the elastic buffer, whose backlog shows in the Stats gauges.
	// Open and OpenImage refuse a non-nil value.
	Admission *AdmissionOptions

	// DisableGroupCommit once selected the serialized-write ablation.
	//
	// Deprecated: the ablation has been removed; every write already
	// commits alone under the engine's commit lock. Open refuses true.
	DisableGroupCommit bool
	// DisableEpochReads once selected the mutex-refcount read ablation.
	//
	// Deprecated: the ablation has been removed and every read pins its
	// version through the epoch protocol. Open refuses true.
	DisableEpochReads bool
}

// GovernorOptions tunes the adaptive memory governor (tick interval,
// per-shard floor, hysteresis, EWMA weight); the zero value uses the
// defaults. The budget itself comes from Options.MemoryBudget — a
// Budget set here directly takes precedence, for parity with
// shard.OpenGoverned. See shard.GovernorOptions for field semantics.
type GovernorOptions = shard.GovernorOptions

// AdmissionOptions once configured Options.Admission.
//
// Deprecated: admission control has been removed; the type remains so
// old callers compile, and Open refuses any Options.Admission.
type AdmissionOptions struct {
	SoftImms, HardImms       int
	SoftL0Bytes, HardL0Bytes int64
	SlowdownDelay            time.Duration
}

// ValueLogOptions configures key-value separation (Options.ValueLog).
// Zero fields select defaults: Threshold 1 KiB, SegmentSize 4× the
// memtable, GCDeadRatio 0.5. Segments live in NVM, so Checkpoint images
// and crash recovery cover them. OnSSD is deprecated: the SSD-resident
// value log has been removed, and Open and OpenImage refuse true
// (DESIGN.md §7, "Feature combinations"). See core.ValueLogOptions for
// field semantics.
type ValueLogOptions = core.ValueLogOptions

// maxLevels bounds Options.Levels: beyond this each extra level is one
// more idle compaction goroutine per shard with no measurable benefit
// (the paper settles on 8; see Fig 9).
const maxLevels = 64

// maxShards bounds Options.Shards: each shard is a full engine with its
// own background goroutines and memory floor.
const maxShards = 1024

// validate rejects invalid option values with descriptive errors. Zero
// values are always valid and mean "use the default".
func (opts *Options) validate() error {
	if opts == nil {
		return nil
	}
	if opts.MemTableSize < 0 {
		return fmt.Errorf("miodb: invalid MemTableSize %d: must be ≥ 0 (0 selects the default)", opts.MemTableSize)
	}
	if opts.Levels != 0 && (opts.Levels < 2 || opts.Levels > maxLevels) {
		return fmt.Errorf("miodb: invalid Levels %d: must be 0 (default) or in [2, %d]", opts.Levels, maxLevels)
	}
	if opts.TimeScale < 0 || math.IsNaN(opts.TimeScale) {
		return fmt.Errorf("miodb: invalid TimeScale %g: must be ≥ 0 (0 selects the default)", opts.TimeScale)
	}
	if opts.DisableGroupCommit {
		return fmt.Errorf("miodb: DisableGroupCommit is no longer supported: the serialized-write ablation was removed and every write commits under one lock")
	}
	if opts.DisableEpochReads {
		return fmt.Errorf("miodb: DisableEpochReads is no longer supported: the mutex-refcount read ablation was removed and every read is epoch-pinned")
	}
	if opts.Admission != nil {
		return fmt.Errorf("miodb: Admission is no longer supported: write admission control was removed; writers never wait on the elastic buffer, whose backlog shows in the Stats gauges")
	}
	if opts.Shards < 0 || opts.Shards > maxShards {
		return fmt.Errorf("miodb: invalid Shards %d: must be in [0, %d] (0 and 1 select the single-engine path)", opts.Shards, maxShards)
	}
	if opts.MemoryBudget < 0 {
		return fmt.Errorf("miodb: invalid MemoryBudget %d: must be ≥ 0 (0 keeps per-shard MemTableSize)", opts.MemoryBudget)
	}
	if g := opts.Governor; g != nil {
		if g.Budget < 0 || g.FloorBytes < 0 || g.Interval < 0 || g.HysteresisFrac < 0 || math.IsNaN(g.HysteresisFrac) {
			return fmt.Errorf("miodb: invalid Governor options: Budget/FloorBytes/Interval/HysteresisFrac must be ≥ 0 (0 selects each default)")
		}
		if g.Alpha < 0 || g.Alpha > 1 || math.IsNaN(g.Alpha) {
			return fmt.Errorf("miodb: invalid Governor.Alpha %g: must be in [0, 1] (0 selects the default)", g.Alpha)
		}
	}
	if vc := opts.ValueLog; vc != nil {
		if vc.Threshold < 0 {
			return fmt.Errorf("miodb: invalid ValueLog.Threshold %d: must be ≥ 0 (0 selects the default)", vc.Threshold)
		}
		if vc.SegmentSize < 0 {
			return fmt.Errorf("miodb: invalid ValueLog.SegmentSize %d: must be ≥ 0 (0 selects the default)", vc.SegmentSize)
		}
		if vc.GCDeadRatio < 0 || vc.GCDeadRatio > 1 || math.IsNaN(vc.GCDeadRatio) {
			return fmt.Errorf("miodb: invalid ValueLog.GCDeadRatio %g: must be in [0, 1] (0 selects the default)", vc.GCDeadRatio)
		}
	}
	return nil
}

// coreOptions is the single opts → core.Options translation, shared by
// Open and OpenImage so the two entry points can never drift. shards is
// the number of engines the store runs, which MemoryBudget is split
// across. opts may be nil.
func (opts *Options) coreOptions(shards int) core.Options {
	var co core.Options
	if opts == nil {
		return co
	}
	co.MemTableSize = opts.MemTableSize
	if opts.MemoryBudget > 0 {
		co.MemTableSize = shard.SplitBudget(opts.MemoryBudget, shards)
	}
	co.Levels = opts.Levels
	co.BloomBitsPerKey = opts.BloomBitsPerKey
	co.DisableWAL = opts.DisableWAL
	co.ValueLog = opts.ValueLog
	co.Simulate = opts.Simulate
	co.TimeScale = opts.TimeScale
	if opts.UseSSD {
		co.SSD = &core.SSDOptions{}
	}
	return co
}

func (opts *Options) shardCount() int {
	if opts == nil {
		return 1
	}
	if opts.Shards < 1 {
		return 1
	}
	return opts.Shards
}

// Stats is the store's cost accounting snapshot: operation counts, stall
// time, flush/compaction time, device traffic, and write amplification.
// For a sharded store the top-level fields aggregate all shards and
// Stats.Shards carries the per-shard breakdown.
type Stats = stats.Snapshot

// Op indexes Stats.OpLatencies: Stats().OpLatencies[OpGet].P999 is the
// measured Get tail in microseconds. OpPut and OpDelete are per-record
// commit latencies (queue wait + WAL + memtable insert); OpCommit is the
// whole Write/WriteBatch commit, one sample per batch.
type Op = stats.Op

const (
	OpPut    = stats.OpPut
	OpGet    = stats.OpGet
	OpDelete = stats.OpDelete
	OpScan   = stats.OpScan
	OpCommit = stats.OpCommit
	NumOps   = stats.NumOps
)

// DB is a MioDB store: a single engine, or — with Options{Shards: N} —
// a hash-partitioned router over N independent engines behind the same
// methods.
type DB struct {
	eng engine // the one engine every method forwards to
}

// Open creates a store. opts may be nil for defaults. Invalid options
// are rejected with a descriptive error.
func Open(opts *Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := opts.shardCount()
	co := opts.coreOptions(n)
	// A Governor goes to the router even with one shard: the router's
	// compatibility check refuses it there.
	if n == 1 && (opts == nil || opts.Governor == nil) {
		inner, err := core.Open(co)
		if err != nil {
			return nil, err
		}
		return &DB{eng: coreEngine{inner}}, nil
	}
	var gov *GovernorOptions
	if opts.Governor != nil {
		// Copy so Open never mutates the caller's literal; the budget
		// knob is Options.MemoryBudget unless the caller set one on the
		// governor directly.
		g := *opts.Governor
		if g.Budget == 0 {
			g.Budget = opts.MemoryBudget
		}
		gov = &g
	}
	router, err := shard.OpenGoverned(n, co, gov)
	if err != nil {
		return nil, err
	}
	return &DB{eng: routerEngine{router}}, nil
}

// Put stores a key-value pair. The value is durable (in the simulated
// NVM's write-ahead log) when Put returns.
func (db *DB) Put(key, value []byte) error {
	return db.eng.Put(key, value)
}

// Get returns the newest value for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	return db.eng.Get(key)
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	return db.eng.Delete(key)
}

// DeleteRange deletes every key k with start ≤ k < end in one O(1)
// logical operation; an empty end deletes every key ≥ start, and an
// otherwise empty range is a no-op. The range tombstone is durable (WAL)
// when DeleteRange returns and is honored by every read path immediately;
// the covered entries are physically reclaimed later by the normal
// compaction pipeline. Snapshots taken before the DeleteRange keep
// reading the covered keys. On a sharded store the tombstone is broadcast
// to every shard (a range spans hash partitions); like a cross-shard
// batch, live readers may observe the broadcast mid-way, but a Snapshot
// always sees it entirely applied or not at all.
func (db *DB) DeleteRange(start, end []byte) error {
	return db.eng.DeleteRange(start, end)
}

// GetMulti reads several keys in one operation. Results are positional:
// values[i] and errs[i] answer keys[i], with ErrNotFound per missing key.
// All lookups are answered from one pinned version per engine — cheaper
// and more consistent than n sequential Gets; on a sharded store the
// groups run shard-concurrently (per-shard consistency; use Snapshot for
// a single cross-shard cut).
func (db *DB) GetMulti(keys [][]byte) ([][]byte, []error) {
	return db.eng.GetMulti(keys)
}

// Batch collects writes for atomic application via Write.
type Batch = core.Batch

// Write applies every operation in the batch atomically: consecutive
// sequence numbers, logged together, all-or-nothing across a crash. On a
// sharded store the batch is split by routing hash and that guarantee
// holds per shard — each shard's slice commits as one unit, but a crash
// can surface some shards' slices without others'.
func (db *DB) Write(b *Batch) error {
	return db.eng.Write(b)
}

// Scan calls fn for up to limit live keys ≥ start, in order; fn returning
// false stops the scan. limit ≤ 0 scans to the end. On a sharded store
// the per-shard streams are heap-merged into one globally ordered scan.
// The key and value slices passed to fn alias store memory and are only
// valid for the duration of the callback; copy them to retain.
func (db *DB) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	return db.eng.Scan(start, limit, fn)
}

// Iterator walks a store's live keys in order. Close releases its
// snapshot; callers must Close every iterator before closing the store.
type Iterator interface {
	// SeekToFirst positions at the first live key.
	SeekToFirst()
	// Seek positions at the first live key ≥ key.
	Seek(key []byte)
	// Next advances to the next live key.
	Next()
	// Valid reports whether the iterator is positioned.
	Valid() bool
	// Key returns the current key (valid until Next/Close).
	Key() []byte
	// Value returns the current value (valid until Next/Close).
	Value() []byte
	// Err returns the iterator's sticky error.
	Err() error
	// Close releases the iterator's snapshot.
	Close()
}

// NewIterator returns an ordered iterator over live keys — on a sharded
// store, a k-way merge over every shard's snapshot. Callers must Close
// it to release its snapshot(s).
func (db *DB) NewIterator() Iterator {
	return db.eng.NewIterator()
}

// Snapshot is a long-lived consistent read-only view of the store: every
// read answers exactly as of capture time, no matter how many writes,
// flushes, or compactions happen afterwards. Snapshots are O(1) to take —
// a version pin plus a sequence bound, no data copied — and arbitrarily
// long-lived; the cost of holding one is that memory superseded after the
// capture cannot be reclaimed until it closes. Callers must Close every
// snapshot (and every iterator derived from one) before closing the
// store, exactly like an Iterator.
type Snapshot interface {
	// Get returns the value key had at capture, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// GetMulti reads several keys from the cut, positionally; all
	// answers are mutually consistent.
	GetMulti(keys [][]byte) ([][]byte, []error)
	// Scan calls fn for up to limit keys ≥ start as of capture, in
	// order; fn returning false stops early. limit ≤ 0 means no limit.
	Scan(start []byte, limit int, fn func(key, value []byte) bool) error
	// NewIterator returns an ordered iterator over the cut. It holds its
	// own reference and stays valid even if the Snapshot closes first.
	NewIterator() Iterator
	// Close releases the snapshot, letting reclamation resume.
	// Idempotent.
	Close() error
}

// engine is what DB forwards to: coreEngine over one core.DB (Shards ≤
// 1) or routerEngine over a shard.Router (Shards > 1). Both promote the
// methods their engine already has and add the two reads whose result
// types differ between the engines.
type engine interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	DeleteRange(start, end []byte) error
	GetMulti(keys [][]byte) ([][]byte, []error)
	Write(b *Batch) error
	Scan(start []byte, limit int, fn func(key, value []byte) bool) error
	NewIterator() Iterator
	Snapshot() (Snapshot, error)
	ValueLogEnabled() bool
	RunValueLogGC() (int, error)
	FlushAll() error
	Checkpoint(path string) error
	Stats() Stats
	Err() error
	Close() error
}

type coreEngine struct{ *core.DB }

func (e coreEngine) NewIterator() Iterator { return e.DB.NewIterator() }

func (e coreEngine) Snapshot() (Snapshot, error) {
	s, err := e.DB.Snapshot()
	if err != nil {
		return nil, err
	}
	return coreSnapshot{s}, nil
}

type routerEngine struct{ *shard.Router }

func (e routerEngine) NewIterator() Iterator { return e.Router.NewIterator() }

func (e routerEngine) Snapshot() (Snapshot, error) {
	s, err := e.Router.Snapshot()
	if err != nil {
		return nil, err
	}
	return shardSnapshot{s}, nil
}

// coreSnapshot adapts *core.Snapshot's concrete iterator to the public
// interface; shardSnapshot does the same for the cross-shard cut.
type coreSnapshot struct{ *core.Snapshot }

func (s coreSnapshot) NewIterator() Iterator { return s.Snapshot.NewIterator() }

type shardSnapshot struct{ *shard.Snapshot }

func (s shardSnapshot) NewIterator() Iterator { return s.Snapshot.NewIterator() }

// Snapshot captures a consistent view of the store. On a sharded store
// the capture briefly coordinates with every shard's commit path (all
// commit locks taken in shard order before any bound is read), so the cut
// is consistent across shards: a multi-shard batch is either entirely
// visible or entirely invisible. Returns ErrSnapshotUnsupported on
// SSD-mode stores.
func (db *DB) Snapshot() (Snapshot, error) {
	return db.eng.Snapshot()
}

// SnapshotView adapts Snapshot to the kvstore.Snapshotter capability the
// network server probes for, so a served DB answers the SNAP protocol
// ops.
func (db *DB) SnapshotView() (kvstore.SnapshotView, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ValueLogEnabled reports whether the store was opened with key-value
// separation (Options.ValueLog).
func (db *DB) ValueLogEnabled() bool {
	return db.eng.ValueLogEnabled()
}

// RunValueLogGC reclaims value-log segments until none qualifies: every
// sealed segment whose dead-space fraction is at or above the configured
// GCDeadRatio has its live values relocated through the normal write path
// and its memory queued for release once no snapshot or in-flight read
// can still reference it. It returns the number of segments reclaimed
// (across all shards on a sharded store). The background GC loop runs the
// same reclamation on compaction activity; calling this forces a full
// pass now. A no-op returning 0 when separation is off. Safe to call
// concurrently with reads, writes, and snapshots.
func (db *DB) RunValueLogGC() (int, error) {
	return db.eng.RunValueLogGC()
}

// Flush forces the DRAM buffer(s) out and waits for all background
// compaction to drain.
func (db *DB) Flush() error {
	return db.eng.FlushAll()
}

// Checkpoint writes the store's persistent state to a file (atomically).
// On real NVM hardware the memory itself is the durable medium; under
// simulation, checkpoint images provide process-level durability:
// OpenImage restores a store from one through the crash-recovery path.
// A sharded store writes one file holding every shard's image with the
// shard count recorded in the header.
//
// SSD-mode stores (Options.UseSSD) cannot be checkpointed: images
// capture the NVM state only, so an image of a store whose repository
// lives on the simulated SSD would silently miss that data. Checkpoint
// refuses rather than writing an incomplete image (DESIGN.md §7,
// "Feature combinations").
func (db *DB) Checkpoint(path string) error {
	return db.eng.Checkpoint(path)
}

// OpenImage restores a store from a checkpoint file written by
// Checkpoint. opts must carry the same structural settings (Levels,
// Shards) the checkpointed store used; nil means defaults. The image's
// recorded shard count is validated: restoring a sharded image with a
// mismatched Shards value is rejected (Shards = 0 adopts the recorded
// count), as is restoring a single-engine image with Shards > 1.
// MemoryBudget is split across the restored shards as Open splits it.
// Restoring with UseSSD (images hold the NVM state only), the removed
// ValueLog.OnSSD, or a Governor (a restored store runs ungoverned) is
// rejected before the file is read. DESIGN.md §7, "Feature
// combinations", lists every refusal.
func OpenImage(path string, opts *Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	governed := opts != nil && opts.Governor != nil
	if err := core.Refusal(core.OpRecover, opts.coreOptions(1), opts.shardCount(), governed); err != nil {
		return nil, err
	}
	count, sharded, err := shard.ImageInfo(path)
	if err != nil {
		return nil, err
	}
	n := opts.shardCount()
	if !sharded && n > 1 {
		return nil, fmt.Errorf("miodb: shard-count mismatch: image is single-engine, options request %d shards", n)
	}
	if sharded && (opts == nil || opts.Shards == 0) {
		n = count // defaults adopt the image's recorded count
	}
	// max: a corrupt image's count of 0 reaches shard.OpenImage, which
	// refuses it, rather than dividing MemoryBudget by zero here.
	co := opts.coreOptions(max(n, 1))
	if sharded {
		router, err := shard.OpenImage(path, n, co)
		if err != nil {
			return nil, err
		}
		return &DB{eng: routerEngine{router}}, nil
	}
	inner, err := core.OpenImage(path, co)
	if err != nil {
		return nil, err
	}
	return &DB{eng: coreEngine{inner}}, nil
}

// Stats returns the store's cost accounting. For a sharded store the
// counters aggregate every shard (stalls are maxima — shards stall in
// parallel) and Stats.Shards holds the per-shard breakdown.
func (db *DB) Stats() Stats {
	return db.eng.Stats()
}

// Err reports the store's latched background error, if any. A non-nil
// result wraps ErrDegraded: a flush, compaction, or manifest append hit a
// persistent device fault, the store refused to release any state the
// last recoverable image depends on, and it now serves reads only. On a
// sharded store the first shard error latches and stays the reported
// cause; only that shard refuses writes.
func (db *DB) Err() error {
	return db.eng.Err()
}

// Close drains background work and shuts the store down. Callers must
// stop issuing operations first.
func (db *DB) Close() error {
	return db.eng.Close()
}
