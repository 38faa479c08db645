// Package leveldbkv is the classic LevelDB-style baseline: a DRAM
// memtable + write-ahead log in front of a leveled SSTable tree on a
// block device. In the paper's "in-memory mode" the block device is NVM
// accessed through a file interface; in the hierarchy mode it is an SSD.
//
// It exhibits exactly the pathologies the paper measures: memtable
// flushing pays full serialization; reads from SSTables pay
// deserialization; L0 pile-ups throttle (cumulative stalls) and block
// (interval stalls) the write path; and leveled compaction multiplies
// write traffic (write amplification ≈ fanout × depth).
//
// The shared baseline.Engine carries the front end, the reads and the
// lifecycle; this package adds LevelDB's L0 throttle and its flush.
package leveldbkv

import (
	"time"

	"miodb/internal/baseline"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/vfs"
)

// Options configures the baseline.
type Options struct {
	// MemTableSize is the DRAM buffer capacity.
	MemTableSize int64
	// Disk hosts the SSTables; nil creates an NVM-block-profile disk
	// (the paper's in-memory mode).
	Disk *vfs.Disk
	// LSM tunes the leveled tree.
	LSM lsm.Options
	// DisableWAL turns off write-ahead logging.
	DisableWAL bool
	// Simulate enables device latency injection; TimeScale scales it.
	Simulate  bool
	TimeScale float64
}

// maxImms bounds the immutable memtables: one, LevelDB-style.
const maxImms = 1

// DB is a LevelDB-style store.
type DB struct {
	baseline.Engine
}

// Open creates a store.
func Open(opts Options) (*DB, error) {
	db := &DB{}
	err := db.Init(baseline.Config{
		MemTableSize: opts.MemTableSize,
		LSM:          &opts.LSM,
		Disk:         opts.Disk,
		DisableWAL:   opts.DisableWAL,
		Simulate:     opts.Simulate,
		TimeScale:    opts.TimeScale,
	}, baseline.Policy{
		QueueBound: maxImms,
		Slowdown:   db.l0Slowdown,
		AtRotation: db.l0Stop,
		Retire:     db.flush,
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// l0Slowdown is LevelDB's 1 ms per-write delay while L0 is crowded.
func (db *DB) l0Slowdown() time.Duration {
	sleep, _ := db.LSM.WriteDelay()
	return sleep
}

// l0Stop holds a full memtable's rotation while L0 is at its stop
// limit: the writer blocks until compaction drains L0, an interval
// stall. Called with Mu held; it releases Mu when it stalls.
func (db *DB) l0Stop() bool {
	if _, stop := db.LSM.WriteDelay(); !stop {
		return false
	}
	db.Mu.Unlock()
	db.St.AddIntervalStall(db.LSM.WaitL0BelowStop())
	return true
}

// flush serializes an immutable memtable into one L0 SSTable.
func (db *DB) flush(b *baseline.Buffer) error {
	start := time.Now()
	if err := db.LSM.FlushToL0(b.MT.NewIterator(), 0); err != nil {
		return err
	}
	db.St.AddFlush(time.Since(start), b.MT.ApproximateBytes())
	return nil
}

// Flush forces the memtable out and drains compactions.
func (db *DB) Flush() error {
	if err := db.Rotate(); err != nil {
		return err
	}
	db.Drain()
	return nil
}

var _ kvstore.Store = (*DB)(nil)
