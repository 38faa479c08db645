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
package leveldbkv

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

// Options configures the baseline.
type Options struct {
	// MemTableSize is the DRAM buffer capacity.
	MemTableSize int64
	// ChunkSize bounds the largest entry.
	ChunkSize int
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

func (o Options) withDefaults() Options {
	if o.MemTableSize <= 0 {
		o.MemTableSize = 64 << 10
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

// DB is a LevelDB-style store.
type DB struct {
	opts  Options
	space *vaddr.Space
	dram  *nvm.Device
	nvm   *nvm.Device // hosts the WAL
	disk  *vfs.Disk
	lsm   *lsm.Levels
	st    *stats.Recorder

	writeMu sync.Mutex
	seq     uint64

	mu     sync.Mutex
	cond   *sync.Cond
	mem    *handle
	imm    *handle // at most one, LevelDB-style
	closed bool

	wg sync.WaitGroup
}

type handle struct {
	mt  *memtable.MemTable
	log *wal.Log
}

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

	mem, err := db.newHandle()
	if err != nil {
		return nil, err
	}
	db.mem = mem

	db.wg.Add(1)
	go db.flushLoop()
	return db, nil
}

func (db *DB) newHandle() (*handle, error) {
	mt, err := memtable.New(db.dram, db.opts.MemTableSize, db.opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	h := &handle{mt: mt}
	if !db.opts.DisableWAL {
		h.log = wal.New(db.nvm, db.opts.ChunkSize)
	}
	return h, nil
}

// Put stores a key-value pair.
func (db *DB) Put(key, value []byte) error { return db.write(key, value, keys.KindSet) }

// Delete writes a tombstone.
func (db *DB) Delete(key []byte) error { return db.write(key, nil, keys.KindDelete) }

func (db *DB) write(key, value []byte, kind keys.Kind) error {
	if len(key) == 0 {
		return fmt.Errorf("leveldbkv: empty key")
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.makeRoomForWrite(); err != nil {
		return err
	}
	db.seq++
	seq := db.seq

	db.mu.Lock()
	mem := db.mem
	db.mu.Unlock()
	if mem.log != nil {
		if err := mem.log.Append(key, value, seq, kind); err != nil {
			return err
		}
	}
	if err := mem.mt.Add(key, value, seq, kind); err != nil {
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

// makeRoomForWrite implements LevelDB's throttling ladder: a 1 ms
// slowdown per write when L0 is crowded (cumulative stall), a full block
// while L0 is at the stop limit or while the previous memtable is still
// flushing (interval stall).
func (db *DB) makeRoomForWrite() error {
	slowedDown := false
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return kvstore.ErrClosed
		}
		sleep, block := db.lsm.WriteDelay()
		switch {
		case sleep > 0 && !slowedDown:
			db.mu.Unlock()
			time.Sleep(sleep)
			db.st.Add(stats.CumulativeStallNs, int64(sleep))
			slowedDown = true
			continue
		case !db.mem.mt.Full():
			db.mu.Unlock()
			return nil
		case db.imm != nil:
			// Previous memtable still flushing: the write path blocks —
			// an interval stall the client observes directly.
			start := time.Now()
			for db.imm != nil && !db.closed {
				db.cond.Wait()
			}
			db.st.AddIntervalStall(time.Since(start))
			db.mu.Unlock()
			continue
		case block:
			db.mu.Unlock()
			d := db.lsm.WaitL0BelowStop()
			db.st.AddIntervalStall(d)
			continue
		default:
			// Rotate.
			fresh, err := db.newHandle()
			if err != nil {
				db.mu.Unlock()
				return err
			}
			db.imm = db.mem
			db.mem = fresh
			db.cond.Broadcast()
			db.mu.Unlock()
			return nil
		}
	}
}

func (db *DB) flushLoop() {
	defer db.wg.Done()
	for {
		db.mu.Lock()
		for db.imm == nil && !db.closed {
			db.cond.Wait()
		}
		if db.imm == nil && db.closed {
			db.mu.Unlock()
			return
		}
		imm := db.imm
		db.mu.Unlock()

		start := time.Now()
		if err := db.lsm.FlushToL0(imm.mt.NewIterator()); err != nil {
			panic(err)
		}
		db.st.AddFlush(time.Since(start), imm.mt.ApproximateBytes())

		db.mu.Lock()
		db.imm = nil
		db.cond.Broadcast()
		db.mu.Unlock()
		imm.mt.Release()
		if imm.log != nil {
			imm.log.Release()
		}
	}
}

// Get returns the newest live value for key.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.st.Add(stats.Gets, 1)
	db.mu.Lock()
	mem, imm := db.mem, db.imm
	db.mu.Unlock()

	if v, _, kind, ok := mem.mt.Get(key); ok {
		return finishGet(v, kind)
	}
	if imm != nil {
		if v, _, kind, ok := imm.mt.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	if v, _, kind, ok := db.lsm.Get(key); ok {
		return finishGet(v, kind)
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
	sources := []iterx.Iterator{db.mem.mt.NewIterator()}
	if db.imm != nil {
		sources = append(sources, db.imm.mt.NewIterator())
	}
	db.mu.Unlock()
	sources = append(sources, db.lsm.Iterators()...)
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

// Flush forces the memtable out and drains compactions.
func (db *DB) Flush() error {
	db.writeMu.Lock()
	db.mu.Lock()
	needRotate := !db.mem.mt.Empty()
	db.mu.Unlock()
	if needRotate {
		for {
			db.mu.Lock()
			if db.imm == nil {
				fresh, err := db.newHandle()
				if err != nil {
					db.mu.Unlock()
					db.writeMu.Unlock()
					return err
				}
				db.imm = db.mem
				db.mem = fresh
				db.cond.Broadcast()
				db.mu.Unlock()
				break
			}
			db.cond.Wait()
			db.mu.Unlock()
		}
	}
	db.writeMu.Unlock()

	// Wait for the flush and all compactions.
	db.mu.Lock()
	for db.imm != nil && !db.closed {
		db.cond.Wait()
	}
	db.mu.Unlock()
	db.lsm.WaitIdle()
	return nil
}

// Stats returns cost accounting with device traffic and its rates.
func (db *DB) Stats() stats.Snapshot {
	s := db.st.Snapshot()
	s.Devices = []stats.DeviceCounters{db.nvm.Counters().Stats(), db.disk.Counters().Stats()}
	s.Derive()
	return s
}

// ResetCounters clears device and cost counters between bench phases.
func (db *DB) ResetCounters() {
	db.dram.ResetCounters()
	db.nvm.ResetCounters()
	db.disk.ResetCounters()
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
	db.lsm.Close()
	return nil
}

var _ kvstore.Store = (*DB)(nil)
