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
package novelsm

import (
	"fmt"
	"sync"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/stats"
	"miodb/internal/vaddr"
	"miodb/internal/vfs"
	"miodb/internal/wal"
)

// Options configures the store.
type Options struct {
	// MemTableSize is the DRAM buffer capacity (paper: 64 MB → 64 KB).
	MemTableSize int64
	// NVMBufferSize is the big NVM memtable capacity (paper: 4 GB → 4 MB).
	NVMBufferSize int64
	// ChunkSize bounds the largest entry.
	ChunkSize int
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

func (o Options) withDefaults() Options {
	if o.MemTableSize <= 0 {
		o.MemTableSize = 64 << 10
	}
	if o.NVMBufferSize <= 0 {
		o.NVMBufferSize = 4 << 20
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 256 << 10
	}
	if o.ChunkSize < int(o.MemTableSize/4) {
		o.ChunkSize = int(o.MemTableSize)
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	return o
}

// buffer is one write buffer in the alternating pipeline.
type buffer struct {
	mt    *memtable.MemTable
	log   *wal.Log // nil for NVM-resident buffers (already persistent)
	isNVM bool
}

// DB is a flat-NoveLSM store.
type DB struct {
	opts  Options
	space *vaddr.Space
	dram  *nvm.Device
	nvm   *nvm.Device
	disk  *vfs.Disk
	lsm   *lsm.Levels // nil in NoSST mode
	st    *stats.Recorder

	writeMu sync.Mutex
	seq     uint64

	mu     sync.Mutex
	cond   *sync.Cond
	active *buffer
	queue  []*buffer          // immutable buffers, oldest first
	nvmBig *memtable.MemTable // NoSST: the single big NVM skip list
	closed bool

	wg sync.WaitGroup
}

// maxQueue bounds the immutable-buffer backlog before writers block.
const maxQueue = 2

// Open creates a store.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	space := vaddr.NewSpace()
	db := &DB{
		opts:  opts,
		space: space,
		dram:  nvm.NewDevice(space, nvm.DRAMProfile()),
		nvm:   nvm.NewDevice(space, nvm.NVMProfile()),
		st:    &stats.Recorder{},
	}
	db.cond = sync.NewCond(&db.mu)
	db.dram.SetSimulation(opts.Simulate)
	db.nvm.SetSimulation(opts.Simulate)
	db.dram.SetTimeScale(opts.TimeScale)
	db.nvm.SetTimeScale(opts.TimeScale)

	if opts.NoSST {
		big, err := memtable.New(db.nvm, 1<<40, opts.ChunkSize)
		if err != nil {
			return nil, err
		}
		db.nvmBig = big
	} else if opts.Hierarchical {
		big, err := memtable.New(db.nvm, opts.NVMBufferSize, opts.ChunkSize)
		if err != nil {
			return nil, err
		}
		db.nvmBig = big
	}
	if !opts.NoSST {
		db.disk = opts.Disk
		if db.disk == nil {
			db.disk = vfs.NewDisk(vfs.NVMBlockProfile())
		}
		db.disk.SetSimulation(opts.Simulate)
		db.disk.SetTimeScale(opts.TimeScale)
		lo := opts.LSM
		lo.Disk = db.disk
		lo.Stats = db.st
		db.lsm = lsm.New(lo)
	}

	active, err := db.newDRAMBuffer()
	if err != nil {
		return nil, err
	}
	db.active = active

	db.wg.Add(1)
	go db.flushLoop()
	return db, nil
}

func (db *DB) newDRAMBuffer() (*buffer, error) {
	mt, err := memtable.New(db.dram, db.opts.MemTableSize, db.opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	b := &buffer{mt: mt}
	if !db.opts.DisableWAL {
		b.log = wal.New(db.nvm, db.opts.ChunkSize)
	}
	return b, nil
}

func (db *DB) newNVMBuffer() (*buffer, error) {
	mt, err := memtable.New(db.nvm, db.opts.NVMBufferSize, db.opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	return &buffer{mt: mt, isNVM: true}, nil
}

// Put stores a key-value pair.
func (db *DB) Put(key, value []byte) error { return db.write(key, value, keys.KindSet) }

// Delete writes a tombstone.
func (db *DB) Delete(key []byte) error { return db.write(key, nil, keys.KindDelete) }

func (db *DB) write(key, value []byte, kind keys.Kind) error {
	if len(key) == 0 {
		return fmt.Errorf("novelsm: empty key")
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return kvstore.ErrClosed
		}
		active := db.active
		if !active.mt.Full() {
			db.seq++
			seq := db.seq
			db.mu.Unlock()
			if active.log != nil {
				if err := active.log.Append(key, value, seq, kind); err != nil {
					return err
				}
			}
			if err := active.mt.Add(key, value, seq, kind); err != nil {
				return err
			}
			db.st.Add(stats.UserBytes, int64(len(key)+len(value)))
			if kind == keys.KindDelete {
				db.st.Add(stats.Deletes, 1)
			} else {
				db.st.Add(stats.Puts, 1)
			}
			return nil
		}
		// Rotate the full active buffer.
		if db.opts.NoSST || db.opts.Hierarchical {
			// These variants keep only DRAM write buffers; immutables
			// drain into the big NVM list.
			if len(db.queue) >= maxQueue {
				db.stallLocked()
				continue
			}
			fresh, err := db.newDRAMBuffer()
			if err != nil {
				db.mu.Unlock()
				return err
			}
			db.queue = append(db.queue, active)
			db.active = fresh
			db.cond.Broadcast()
			db.mu.Unlock()
			continue
		}
		if len(db.queue) >= maxQueue {
			// Both buffers ahead are still flushing — the long interval
			// stall NoveLSM suffers when the big NVM memtable drains.
			db.stallLocked()
			continue
		}
		var fresh *buffer
		var err error
		if active.isNVM {
			fresh, err = db.newDRAMBuffer() // return to DRAM
		} else {
			fresh, err = db.newNVMBuffer() // overflow into NVM, in place
		}
		if err != nil {
			db.mu.Unlock()
			return err
		}
		db.queue = append(db.queue, active)
		db.active = fresh
		db.cond.Broadcast()
		db.mu.Unlock()
	}
}

// stallLocked blocks the writer until the flush queue shortens, recording
// the interval stall. Called with db.mu held; returns with it released.
func (db *DB) stallLocked() {
	start := time.Now()
	for len(db.queue) >= maxQueue && !db.closed {
		db.cond.Wait()
	}
	db.st.AddIntervalStall(time.Since(start))
	db.mu.Unlock()
}

// flushLoop retires immutable buffers oldest-first: serialization into L0
// SSTables (throttled by L0 pressure), or — in the NoSST variant —
// entry-by-entry drains into the big NVM skip list, the costly one-by-one
// merge the MioDB paper's §4.1 analysis counts.
func (db *DB) flushLoop() {
	defer db.wg.Done()
	for {
		db.mu.Lock()
		for len(db.queue) == 0 && !db.closed {
			db.cond.Wait()
		}
		if len(db.queue) == 0 && db.closed {
			db.mu.Unlock()
			return
		}
		b := db.queue[0]
		db.mu.Unlock()

		if db.opts.NoSST || db.opts.Hierarchical {
			// The costly one-by-one merge into the big persistent skip
			// list (§4.1's log(N) probes + memcpy per KV).
			start := time.Now()
			it := b.mt.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if err := db.nvmBig.Add(it.Key(), it.Value(), it.Seq(), it.Kind()); err != nil {
					panic(err)
				}
			}
			db.st.AddFlush(time.Since(start), b.mt.ApproximateBytes())
			if db.opts.Hierarchical && db.nvmBig.Full() {
				db.spillHierarchical()
			}
		} else {
			// Throttle against L0 like LevelDB; the backlog this creates
			// is what stalls the writer above.
			for {
				sleep, block := db.lsm.WriteDelay()
				if block {
					d := db.lsm.WaitL0BelowStop()
					db.st.Add(stats.CumulativeStallNs, int64(d))
					continue
				}
				if sleep > 0 {
					time.Sleep(sleep)
					db.st.Add(stats.CumulativeStallNs, int64(sleep))
				}
				break
			}
			start := time.Now()
			maxBytes := int64(1) << 62
			if b.isNVM {
				// The big NVM memtable spills as multiple SSTables.
				maxBytes = db.lsm.Options().TableSize
			}
			if err := db.lsm.FlushToL0Sized(b.mt.NewIterator(), maxBytes); err != nil {
				panic(err)
			}
			db.st.AddFlush(time.Since(start), b.mt.ApproximateBytes())
		}

		db.mu.Lock()
		db.queue = db.queue[1:]
		db.cond.Broadcast()
		db.mu.Unlock()

		b.mt.Release()
		if b.log != nil {
			b.log.Release()
		}
	}
}

// spillHierarchical serializes the full NVM staging memtable into L0
// SSTables and replaces it with a fresh one — the hierarchical
// architecture's big, blocking flush ("when the large NVM-based MemTable
// is flushed into SSD, the KV store still suffers from
// serialization/deserialization costs", §2.3). It runs on the drain
// goroutine, so DRAM flushes back up behind it, which is exactly the
// stall cascade the paper attributes to this design.
func (db *DB) spillHierarchical() {
	old := db.nvmBig
	for {
		sleep, block := db.lsm.WriteDelay()
		if block {
			d := db.lsm.WaitL0BelowStop()
			db.st.Add(stats.CumulativeStallNs, int64(d))
			continue
		}
		if sleep > 0 {
			time.Sleep(sleep)
			db.st.Add(stats.CumulativeStallNs, int64(sleep))
		}
		break
	}
	start := time.Now()
	if err := db.lsm.FlushToL0Sized(old.NewIterator(), db.lsm.Options().TableSize); err != nil {
		panic(err)
	}
	db.st.AddFlush(time.Since(start), old.ApproximateBytes())

	fresh, err := memtable.New(db.nvm, db.opts.NVMBufferSize, db.opts.ChunkSize)
	if err != nil {
		panic(err)
	}
	db.mu.Lock()
	db.nvmBig = fresh
	db.cond.Broadcast()
	db.mu.Unlock()
	old.Release()
}

// Get returns the newest live value for key: active buffer, immutable
// queue newest-first, the NVM staging list, then the SSTable tree.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.st.Add(stats.Gets, 1)
	db.mu.Lock()
	active := db.active
	queue := append([]*buffer(nil), db.queue...)
	nvmBig := db.nvmBig
	db.mu.Unlock()

	if v, _, kind, ok := active.mt.Get(key); ok {
		return finishGet(v, kind)
	}
	for i := len(queue) - 1; i >= 0; i-- { // newest first
		if v, _, kind, ok := queue[i].mt.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	if nvmBig != nil {
		if v, _, kind, ok := nvmBig.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	if db.lsm != nil {
		if v, _, kind, ok := db.lsm.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	return nil, kvstore.ErrNotFound
}

func finishGet(v []byte, kind keys.Kind) ([]byte, error) {
	if kind == keys.KindDelete {
		return nil, kvstore.ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Scan walks live keys ≥ start in order.
func (db *DB) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	db.st.Add(stats.Scans, 1)
	db.mu.Lock()
	sources := []iterx.Iterator{db.active.mt.NewIterator()}
	for _, b := range db.queue {
		sources = append(sources, b.mt.NewIterator())
	}
	nvmBig := db.nvmBig
	db.mu.Unlock()
	if nvmBig != nil {
		sources = append(sources, nvmBig.NewIterator())
	}
	if db.lsm != nil {
		sources = append(sources, db.lsm.Iterators()...)
	}
	it := iterx.NewVisible(iterx.NewMerging(sources...))
	n := 0
	for it.Seek(start); it.Valid(); it.Next() {
		if limit > 0 && n >= limit {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		n++
	}
	return nil
}

// Flush drains the immutable queue and background compactions. The active
// buffer stays resident (NoveLSM keeps its memtables in memory).
func (db *DB) Flush() error {
	db.mu.Lock()
	for len(db.queue) > 0 && !db.closed {
		db.cond.Wait()
	}
	db.mu.Unlock()
	if db.lsm != nil {
		db.lsm.WaitIdle()
	}
	return nil
}

// Stats returns cost accounting with device traffic and its rates.
func (db *DB) Stats() stats.Snapshot {
	s := db.st.Snapshot()
	s.Devices = []stats.DeviceCounters{db.nvm.Counters().Stats()}
	if db.disk != nil {
		s.Devices = append(s.Devices, db.disk.Counters().Stats())
	}
	s.Derive()
	return s
}

// ResetCounters clears device and cost counters between bench phases.
func (db *DB) ResetCounters() {
	db.dram.ResetCounters()
	db.nvm.ResetCounters()
	if db.disk != nil {
		db.disk.ResetCounters()
	}
	db.st.Reset()
}

// Close shuts the store down.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	db.wg.Wait()
	if db.lsm != nil {
		db.lsm.Close()
	}
	return nil
}

var _ kvstore.Store = (*DB)(nil)
