package matrixkv

import (
	"bytes"
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
	// MemTableSize is the DRAM buffer capacity.
	MemTableSize int64
	// NVMBufferSize is the matrix container budget (paper: 8 GB → 8 MB).
	// Column compaction starts at 60% occupancy; writers throttle above
	// the budget and block at 2×.
	NVMBufferSize int64
	// ColumnBytes is the target data volume of one column compaction
	// (the fine grain that keeps MatrixKV's stalls short).
	ColumnBytes int64
	// ChunkSize bounds the largest entry.
	ChunkSize int
	// Disk hosts L1+ SSTables (nil: NVM-block profile).
	Disk *vfs.Disk
	// LSM tunes the on-disk tree. Its L0 is unused: columns merge
	// directly into L1.
	LSM lsm.Options
	// DisableWAL turns off logging.
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
		o.NVMBufferSize = 8 << 20
	}
	if o.ColumnBytes <= 0 {
		o.ColumnBytes = 2 * o.MemTableSize
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

// DB is a MatrixKV store.
type DB struct {
	opts  Options
	space *vaddr.Space
	dram  *nvm.Device
	nvm   *nvm.Device
	disk  *vfs.Disk
	lsm   *lsm.Levels
	st    *stats.Recorder

	writeMu sync.Mutex
	seq     uint64

	mu     sync.Mutex
	cond   *sync.Cond
	mem    *handle
	imms   []*handle // immutable memtables pending row build, oldest first
	rowID  uint64
	rows   []*row // newest first
	closed bool

	// Column compaction cursor state: the current cycle number and the
	// key frontier within the cycle (nil = start of keyspace).
	cycle  int
	cursor []byte

	liveBytes int64 // unconsumed container bytes

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

	db.wg.Add(2)
	go db.flushLoop()
	go db.columnLoop()
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
		return fmt.Errorf("matrixkv: empty key")
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

// makeRoomForWrite throttles against the container budget instead of an
// L0 file count: over budget, every write is delayed (cumulative stall);
// at 2× budget it blocks (rare — column compaction is fine-grained, which
// is exactly MatrixKV's contribution); and it rotates a full memtable.
func (db *DB) makeRoomForWrite() error {
	slowedDown := false
	for {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return kvstore.ErrClosed
		}
		switch {
		case db.liveBytes >= 4*db.opts.NVMBufferSize:
			// Far over budget: block outright. MatrixKV's design goal is
			// that column compaction keeps the container from ever
			// reaching this point (the paper reports zero interval
			// stalls), so this is a safety valve.
			start := time.Now()
			for db.liveBytes >= 4*db.opts.NVMBufferSize && !db.closed {
				db.cond.Wait()
			}
			db.st.AddIntervalStall(time.Since(start))
			db.mu.Unlock()
			continue
		case db.liveBytes >= db.opts.NVMBufferSize && !slowedDown:
			// Over budget: slow every write down, harder the further
			// over — MatrixKV's remaining cumulative stalls (62.5% of
			// write time in the paper's Fig 2(a)).
			over := time.Duration(db.liveBytes / db.opts.NVMBufferSize)
			db.mu.Unlock()
			delay := over * time.Millisecond
			time.Sleep(delay)
			db.st.Add(stats.CumulativeStallNs, int64(delay))
			slowedDown = true
			continue
		case !db.mem.mt.Full():
			db.mu.Unlock()
			return nil
		case len(db.imms) >= maxImms:
			// RocksDB-style bounded immutable queue: block only when
			// several flushes are backlogged.
			start := time.Now()
			for len(db.imms) >= maxImms && !db.closed {
				db.cond.Wait()
			}
			db.st.AddIntervalStall(time.Since(start))
			db.mu.Unlock()
			continue
		default:
			fresh, err := db.newHandle()
			if err != nil {
				db.mu.Unlock()
				return err
			}
			db.imms = append(db.imms, db.mem)
			db.mem = fresh
			db.cond.Broadcast()
			db.mu.Unlock()
			return nil
		}
	}
}

// maxImms bounds the immutable-memtable backlog (RocksDB's
// max_write_buffer_number analogue).
const maxImms = 4

// flushLoop serializes immutable memtables into container rows.
func (db *DB) flushLoop() {
	defer db.wg.Done()
	for {
		db.mu.Lock()
		for len(db.imms) == 0 && !db.closed {
			db.cond.Wait()
		}
		if len(db.imms) == 0 && db.closed {
			db.mu.Unlock()
			return
		}
		imm := db.imms[0]
		db.mu.Unlock()

		start := time.Now()
		db.mu.Lock()
		db.rowID++
		id := db.rowID
		db.mu.Unlock()

		r := buildRow(db.nvm, id, imm.mt, db.opts.ChunkSize, db.st)
		db.st.AddFlush(time.Since(start), imm.mt.ApproximateBytes())

		db.mu.Lock()
		// Stamp the consumption origin at publication time, under the
		// same lock the column compactor advances the cursor with — a
		// stamp taken earlier could predate a whole column extraction
		// and wrongly mark the row's copy of that range as consumed.
		r.joinCycle = db.cycle
		r.sufFrom = db.cursor
		db.rows = append([]*row{r}, db.rows...)
		db.liveBytes += r.size
		db.imms = db.imms[1:]
		db.cond.Broadcast()
		db.mu.Unlock()

		imm.mt.Release()
		if imm.log != nil {
			imm.log.Release()
		}
	}
}

// consumedLocked reports whether the row's copy of key has already been
// column-compacted into L1. A row joins at cursor position sufFrom during
// cycle joinCycle; the column cursor sweeps the keyspace cyclically:
//
//	same cycle:   consumed = sufFrom ≤ key < cursor
//	next cycle:   consumed = key ≥ sufFrom (last cycle) or key < cursor
//	two cycles on: fully consumed (the row is dead and dropped).
func (db *DB) consumedLocked(r *row, key []byte) bool {
	geSuf := r.sufFrom == nil || bytes.Compare(key, r.sufFrom) >= 0
	ltCur := db.cursor != nil && bytes.Compare(key, db.cursor) < 0
	switch db.cycle - r.joinCycle {
	case 0:
		return geSuf && ltCur
	case 1:
		return geSuf || ltCur
	default:
		return db.cycle > r.joinCycle+1
	}
}

// rowDeadLocked reports whether every key of the row has been consumed.
func (db *DB) rowDeadLocked(r *row) bool {
	if r.count == 0 {
		return true
	}
	switch db.cycle - r.joinCycle {
	case 0:
		return false
	case 1:
		// Dead once the prefix sweep reaches the suffix start.
		return r.sufFrom == nil || (db.cursor != nil && bytes.Compare(db.cursor, r.sufFrom) >= 0)
	default:
		return true
	}
}

// columnLoop runs fine-grained column compactions whenever the container
// is over its soft watermark: it extracts one key-range column across all
// rows and merges it directly into L1 — a small, bounded unit of work, so
// the container drains smoothly instead of in L0-sized lurches.
func (db *DB) columnLoop() {
	defer db.wg.Done()
	for {
		db.mu.Lock()
		for db.liveBytes < db.opts.NVMBufferSize*6/10 && !db.closed {
			db.cond.Wait()
		}
		if db.closed && db.liveBytes == 0 {
			db.mu.Unlock()
			return
		}
		if db.closed && len(db.rows) == 0 {
			db.mu.Unlock()
			return
		}
		if len(db.rows) == 0 {
			// Budget pressure can only come from rows; nothing to do.
			db.mu.Unlock()
			continue
		}
		db.mu.Unlock()
		db.compactOneColumn()
	}
}

// compactOneColumn extracts the next column [cursor, end) and merges it
// into L1.
func (db *DB) compactOneColumn() {
	start := time.Now()
	db.mu.Lock()
	rows := append([]*row(nil), db.rows...)
	cycle, cursor := db.cycle, db.cursor
	db.mu.Unlock()

	// Gather per-row iterators positioned at the cursor. A row that
	// joined mid-cycle already had its suffix consumed by this cycle's
	// earlier columns — skip those entries so each version is extracted
	// exactly once in its lifetime.
	var its []iterx.Iterator
	for _, r := range rows {
		it := r.newIter(db.st)
		if cursor == nil {
			it.SeekToFirst()
		} else {
			it.Seek(cursor)
		}
		skip := consumedPredicate(r, cycle, cursor)
		fit := &filteredIter{in: it, skip: skip}
		fit.settle()
		if fit.Valid() {
			its = append(its, fit)
		}
	}
	merged := iterx.NewMerging(its...)
	merged.SeekToFirst()

	// Pull entries until the column target, finishing the last key.
	var col []columnEntry
	var colBytes int64
	var lastKey []byte
	for merged.Valid() {
		k := merged.Key()
		if colBytes >= db.opts.ColumnBytes && lastKey != nil && !bytes.Equal(k, lastKey) {
			break
		}
		col = append(col, columnEntry{
			key:   append([]byte(nil), k...),
			value: append([]byte(nil), merged.Value()...),
			seq:   merged.Seq(),
			kind:  merged.Kind(),
		})
		colBytes += int64(entryHeader + len(k) + len(merged.Value()))
		lastKey = col[len(col)-1].key
		merged.Next()
	}
	wrapped := !merged.Valid()
	var end []byte
	if !wrapped {
		end = append([]byte(nil), merged.Key()...)
	}

	if len(col) > 0 {
		// Feed the column into L1 as a sorted stream.
		ci := &colIter{entries: col}
		smallest, largest := col[0].key, col[len(col)-1].key
		if err := db.lsm.MergeIntoLevel(1, ci, smallest, largest); err != nil {
			panic(err)
		}
	}

	// Advance the cursor, retire consumed bytes, drop dead rows.
	db.mu.Lock()
	// Rows published while this column was extracting were not part of
	// the snapshot, so none of their entries moved — but they recorded
	// sufFrom = the pre-column cursor, which would wrongly mark their
	// [cursor, end) range consumed. Re-stamp them as joining at the
	// post-column frontier.
	inSnapshot := make(map[uint64]bool, len(rows))
	for _, r := range rows {
		inSnapshot[r.id] = true
	}
	for _, r := range db.rows {
		if inSnapshot[r.id] {
			continue
		}
		if wrapped {
			r.joinCycle = db.cycle + 1
			r.sufFrom = nil
		} else {
			r.joinCycle = db.cycle
			r.sufFrom = append([]byte(nil), end...)
		}
	}
	if wrapped {
		db.cycle++
		db.cursor = nil
	} else {
		db.cursor = end
	}
	db.liveBytes -= colBytes
	if db.liveBytes < 0 {
		db.liveBytes = 0
	}
	var live []*row
	for _, r := range db.rows {
		if db.rowDeadLocked(r) {
			r.release(db.nvm)
			continue
		}
		live = append(live, r)
	}
	db.rows = live
	db.cond.Broadcast()
	db.mu.Unlock()
	db.st.AddCompaction(time.Since(start))
}

// columnEntry is one extracted entry of a column.
type columnEntry struct {
	key, value []byte
	seq        uint64
	kind       keys.Kind
}

// colIter streams an extracted column into the L1 merge.
type colIter struct {
	entries []columnEntry
	pos     int
}

func (c *colIter) SeekToFirst() { c.pos = 0 }
func (c *colIter) Seek(k []byte) {
	c.pos = 0
	for c.pos < len(c.entries) && bytes.Compare(c.entries[c.pos].key, k) < 0 {
		c.pos++
	}
}
func (c *colIter) Next()           { c.pos++ }
func (c *colIter) Valid() bool     { return c.pos < len(c.entries) }
func (c *colIter) Key() []byte     { return c.entries[c.pos].key }
func (c *colIter) Value() []byte   { return c.entries[c.pos].value }
func (c *colIter) Seq() uint64     { return c.entries[c.pos].seq }
func (c *colIter) Kind() keys.Kind { return c.entries[c.pos].kind }

// consumedPredicate returns the already-consumed test for a row given a
// snapshot of the column cursor state (see consumedLocked).
func consumedPredicate(r *row, cycle int, cursor []byte) func(key []byte) bool {
	switch cycle - r.joinCycle {
	case 0:
		// Only keys in [sufFrom, cursor) are consumed; the sweep starts
		// at cursor, so nothing ahead of it is consumed yet.
		return func([]byte) bool { return false }
	case 1:
		suf := r.sufFrom
		return func(key []byte) bool {
			return suf == nil || bytes.Compare(key, suf) >= 0
		}
	default:
		return func([]byte) bool { return true }
	}
}

// filteredIter skips entries the predicate marks consumed.
type filteredIter struct {
	in   *rowIter
	skip func(key []byte) bool
}

func (f *filteredIter) settle() {
	for f.in.Valid() && f.skip(f.in.Key()) {
		f.in.Next()
	}
}
func (f *filteredIter) SeekToFirst()    { f.in.SeekToFirst(); f.settle() }
func (f *filteredIter) Seek(k []byte)   { f.in.Seek(k); f.settle() }
func (f *filteredIter) Next()           { f.in.Next(); f.settle() }
func (f *filteredIter) Valid() bool     { return f.in.Valid() }
func (f *filteredIter) Key() []byte     { return f.in.Key() }
func (f *filteredIter) Value() []byte   { return f.in.Value() }
func (f *filteredIter) Seq() uint64     { return f.in.Seq() }
func (f *filteredIter) Kind() keys.Kind { return f.in.Kind() }

// Get returns the newest live value: memtables, then the matrix container
// rows newest-first (paying row deserialization), then L1+.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.st.Add(stats.Gets, 1)
	db.mu.Lock()
	mem := db.mem
	imms := append([]*handle(nil), db.imms...)
	rows := append([]*row(nil), db.rows...)
	db.mu.Unlock()

	if v, _, kind, ok := mem.mt.Get(key); ok {
		return finishGet(v, kind)
	}
	for i := len(imms) - 1; i >= 0; i-- { // newest first
		if v, _, kind, ok := imms[i].mt.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	for _, r := range rows {
		db.mu.Lock()
		consumed := db.consumedLocked(r, key)
		db.mu.Unlock()
		if consumed {
			continue
		}
		if v, _, kind, ok := r.get(key, db.st); ok {
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

// Scan walks live keys ≥ start in order. Rows are included in full; the
// visibility wrapper collapses duplicates with L1+ copies (same versions).
func (db *DB) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	db.st.Add(stats.Scans, 1)
	db.mu.Lock()
	sources := []iterx.Iterator{db.mem.mt.NewIterator()}
	for _, h := range db.imms {
		sources = append(sources, h.mt.NewIterator())
	}
	for _, r := range db.rows {
		sources = append(sources, r.newIter(db.st))
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

// Flush forces the memtable into the container and drains compactions.
func (db *DB) Flush() error {
	db.writeMu.Lock()
	db.mu.Lock()
	needRotate := !db.mem.mt.Empty()
	db.mu.Unlock()
	if needRotate {
		for {
			db.mu.Lock()
			if len(db.imms) < maxImms {
				fresh, err := db.newHandle()
				if err != nil {
					db.mu.Unlock()
					db.writeMu.Unlock()
					return err
				}
				db.imms = append(db.imms, db.mem)
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
	db.mu.Lock()
	for len(db.imms) > 0 && !db.closed {
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

// ContainerBytes returns the live (unconsumed) bytes in the matrix
// container (diagnostics).
func (db *DB) ContainerBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.liveBytes
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
