// Package novelsm reimplements NoveLSM (Kannan et al., ATC'18) as the
// MioDB paper evaluates it: the *flat* architecture, where a large mutable
// persistent memtable in NVM extends the DRAM write buffer, plus the
// NoveLSM-NoSST variant (one big NVM skip list, no SSTables at all).
//
// Buffering alternates, preserving LevelDB's sequence-dominance invariant
// (every memtable made immutable is newer than everything below it):
//
//	DRAM memtable fills → becomes immutable, queued for flush; writes
//	continue *in place* into the big NVM memtable (persistent, so no WAL
//	entry is needed — NoveLSM's stall mitigation), each insert paying an
//	O(log N) position search plus a copy on slow NVM;
//	NVM memtable fills → becomes immutable, queued; writes return to a
//	fresh DRAM memtable.
//
// Immutable buffers serialize to L0 SSTables in order. Flushing the huge
// NVM memtable is the slow, blocking step whose backlog produces the long
// interval stalls of the paper's Fig 2(a); reads below the memtables pay
// SSTable deserialization.
//
// The shared baseline.Engine carries the front end, the reads and the
// lifecycle; this package adds the alternation, the NVM staging list and
// the flushes that throttle against L0.
package novelsm

import (
	"time"

	"miodb/internal/baseline"
	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/memtable"
	"miodb/internal/stats"
	"miodb/internal/vfs"
)

// Options configures the store.
type Options struct {
	// MemTableSize is the DRAM buffer capacity (paper: 64 MB → 64 KB).
	MemTableSize int64
	// NVMBufferSize is the big NVM memtable capacity (paper: 4 GB → 4 MB).
	NVMBufferSize int64
	// NoSST selects the NoveLSM-NoSST variant: immutable DRAM memtables
	// drain into one ever-growing NVM skip list and nothing is ever
	// serialized.
	NoSST bool
	// Hierarchical selects the paper's Figure 1(b) architecture: the NVM
	// memtable is a staging tier *below* DRAM — immutable DRAM memtables
	// drain into it entry by entry, and when it fills it is serialized to
	// L0 SSTables. The default (flat, Figure 1(c)) instead alternates the
	// active buffer between DRAM and NVM.
	Hierarchical bool
	// Disk hosts SSTables (nil: NVM-block profile).
	Disk *vfs.Disk
	// LSM tunes the on-disk tree.
	LSM lsm.Options
	// DisableWAL turns off logging for DRAM-buffered writes.
	DisableWAL bool
	// Simulate/TimeScale control latency injection.
	Simulate  bool
	TimeScale float64
}

// DB is a NoveLSM store: the shared baseline.Engine with NoveLSM's
// buffering and flush policy.
type DB struct {
	baseline.Engine
	nvmSize int64
	// nvmBig is the NVM skip list below the DRAM memtables of the NoSST
	// and hierarchical variants (nil in the flat one). Only the retire
	// job replaces it, under Mu.
	nvmBig *memtable.MemTable
}

// maxQueue bounds the immutable-buffer backlog before writers block.
const maxQueue = 2

// Open creates a store.
func Open(opts Options) (*DB, error) {
	db := &DB{nvmSize: opts.NVMBufferSize}
	if db.nvmSize <= 0 {
		db.nvmSize = 4 << 20
	}
	cfg := baseline.Config{
		MemTableSize: opts.MemTableSize,
		LSM:          &opts.LSM,
		Disk:         opts.Disk,
		DisableWAL:   opts.DisableWAL,
		Simulate:     opts.Simulate,
		TimeScale:    opts.TimeScale,
	}
	p := baseline.Policy{QueueBound: maxQueue, Next: db.alternate, Retire: db.flush}
	staged := opts.NoSST || opts.Hierarchical
	if staged {
		// Only DRAM write buffers; immutables drain into the big NVM list.
		p = baseline.Policy{QueueBound: maxQueue, Retire: db.drain, Get: db.getNVM, Sources: db.nvmSources}
	}
	bigSize := db.nvmSize
	if opts.NoSST {
		cfg.LSM = nil
		bigSize = 1 << 40
	}
	if err := db.Init(cfg, p); err != nil {
		return nil, err
	}
	if staged {
		big, err := db.NewBuffer(db.NVM, bigSize)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.nvmBig = big.MT
	}
	return db, nil
}

// alternate picks the buffer after a full one: a full DRAM memtable
// overflows into a fresh big NVM memtable, written in place with no WAL
// (persistent already — NoveLSM's stall mitigation), each insert paying
// an O(log N) position search plus a copy on slow NVM; a full NVM
// memtable returns writes to DRAM.
func (db *DB) alternate(full *baseline.Buffer) (*baseline.Buffer, error) {
	if full.NVM {
		return db.NewBuffer(db.DRAM, db.MemTableSize())
	}
	return db.NewBuffer(db.NVM, db.nvmSize)
}

// flush serializes an immutable buffer into L0; the big NVM memtable
// spills as several SSTables.
func (db *DB) flush(b *baseline.Buffer) error {
	var maxBytes int64
	if b.NVM {
		maxBytes = db.LSM.Options().TableSize
	}
	return db.spill(b.MT, maxBytes)
}

// spill serializes mt into L0 SSTables of at most maxBytes each (≤ 0:
// one table). It first throttles against L0 like LevelDB's writer —
// waiting out a stop on the job table, then sleeping one slowdown, both
// counted as cumulative stalls — and the backlog this creates is what
// stalls the writers. Only spills add L0 files, so one wait suffices;
// once Close begins it returns at once and the spill goes ahead.
func (db *DB) spill(mt *memtable.MemTable, maxBytes int64) error {
	db.Mu.Lock()
	db.St.Add(stats.CumulativeStallNs, int64(db.WaitWhile(db.L0AtStop)))
	db.Mu.Unlock()
	if sleep, _ := db.LSM.WriteDelay(); sleep > 0 {
		time.Sleep(sleep)
		db.St.Add(stats.CumulativeStallNs, int64(sleep))
	}
	start := time.Now()
	if err := db.LSM.FlushToL0(mt.NewIterator(), maxBytes); err != nil {
		return err
	}
	db.St.AddFlush(time.Since(start), mt.ApproximateBytes())
	return nil
}

// drain is the costly one-by-one merge of an immutable DRAM memtable
// into the big NVM skip list (§4.1's log(N) probes + memcpy per KV). A
// full hierarchical staging list then spills to L0 SSTables and is
// replaced ("when the large NVM-based MemTable is flushed into SSD, the
// KV store still suffers from serialization/deserialization costs",
// §2.3). The spill runs as the retire job, so DRAM flushes back up
// behind it — the stall cascade the paper attributes to this design.
// NoSST's list never fills.
func (db *DB) drain(b *baseline.Buffer) error {
	start := time.Now()
	it := b.MT.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if err := db.nvmBig.Add(it.Key(), it.Value(), it.Seq(), it.Kind()); err != nil {
			return err
		}
	}
	db.St.AddFlush(time.Since(start), b.MT.ApproximateBytes())
	if !db.nvmBig.Full() {
		return nil
	}
	old := db.nvmBig
	if err := db.spill(old, db.LSM.Options().TableSize); err != nil {
		return err
	}
	fresh, err := db.NewBuffer(db.NVM, db.nvmSize)
	if err != nil {
		return err
	}
	db.Mu.Lock()
	db.nvmBig = fresh.MT
	db.Mu.Unlock()
	old.Release()
	return nil
}

// getNVM probes the big NVM skip list.
func (db *DB) getNVM(key []byte) ([]byte, keys.Kind, bool) {
	db.Mu.Lock()
	big := db.nvmBig
	db.Mu.Unlock()
	v, _, kind, ok := big.Get(key)
	return v, kind, ok
}

// nvmSources appends an iterator over the big NVM skip list (Mu held).
func (db *DB) nvmSources(its []iterx.Iterator) []iterx.Iterator {
	return append(its, db.nvmBig.NewIterator())
}

// Flush drains the immutable queue and background compactions. The
// active buffer stays resident (NoveLSM keeps its memtables in memory).
func (db *DB) Flush() error {
	db.Drain()
	return nil
}

var _ kvstore.Store = (*DB)(nil)
