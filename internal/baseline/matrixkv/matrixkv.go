package matrixkv

import (
	"bytes"
	"time"

	"miodb/internal/baseline"
	"miodb/internal/iterx"
	"miodb/internal/jobs"
	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/vfs"
)

// Options configures the store.
type Options struct {
	// MemTableSize is the DRAM buffer capacity.
	MemTableSize int64
	// NVMBufferSize is the matrix container budget (paper: 8 GB → 8 MB).
	// Column compaction starts at 60% occupancy; writers throttle above
	// the budget and block at 4×.
	NVMBufferSize int64
	// ColumnBytes is the target data volume of one column compaction
	// (the fine grain that keeps MatrixKV's stalls short).
	ColumnBytes int64
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

// maxImms bounds the immutable-memtable backlog (RocksDB's
// max_write_buffer_number analogue): a writer blocks only when several
// flushes are backlogged.
const maxImms = 4

// DB is a MatrixKV store: the shared baseline.Engine with the matrix
// container as the tier between the memtables and L1.
type DB struct {
	baseline.Engine
	budget, columnBytes int64

	// The container, guarded by Mu.
	rowID uint64
	rows  []*row // newest first

	// Column compaction cursor state: the current cycle number and the
	// key frontier within the cycle (nil = start of keyspace).
	cycle  int
	cursor []byte

	liveBytes int64 // unconsumed container bytes
}

// Open creates a store.
func Open(opts Options) (*DB, error) {
	db := &DB{budget: opts.NVMBufferSize, columnBytes: opts.ColumnBytes}
	if db.budget <= 0 {
		db.budget = 8 << 20
	}
	// The column job works whenever the container is over its soft
	// watermark and, once the store is closing, until it is empty.
	column := &jobs.Job{
		Name: "column compaction",
		Ready: func() bool {
			return len(db.rows) > 0 && (db.liveBytes >= db.budget*6/10 || db.ClosedLocked() && db.liveBytes > 0)
		},
		Run: db.compactOneColumn,
	}
	err := db.Init(baseline.Config{
		MemTableSize: opts.MemTableSize,
		LSM:          &opts.LSM,
		Disk:         opts.Disk,
		DisableWAL:   opts.DisableWAL,
		Simulate:     opts.Simulate,
		TimeScale:    opts.TimeScale,
	}, baseline.Policy{
		QueueBound: maxImms,
		Hold:       db.farOverBudget,
		Slowdown:   db.overBudget,
		Retire:     db.flushToRow,
		Compact:    column,
		Get:        db.getRows,
		Sources:    db.rowSources,
	})
	if err != nil {
		return nil, err
	}
	if db.columnBytes <= 0 {
		// The column job reads it only once rows exist, after Open.
		db.columnBytes = 2 * db.MemTableSize()
	}
	return db, nil
}

// farOverBudget blocks writers outright at 4× the container budget.
// MatrixKV's design goal is that column compaction keeps the container
// from ever reaching this point (the paper reports zero interval
// stalls), so this is a safety valve. Mu held.
func (db *DB) farOverBudget() bool { return db.liveBytes >= 4*db.budget }

// overBudget slows every write down once the container is over budget,
// harder the further over — MatrixKV's remaining cumulative stalls
// (62.5% of write time in the paper's Fig 2(a)). Mu held.
func (db *DB) overBudget() time.Duration {
	if db.liveBytes < db.budget {
		return 0
	}
	return time.Duration(db.liveBytes/db.budget) * time.Millisecond
}

// flushToRow serializes an immutable memtable into a container row.
func (db *DB) flushToRow(b *baseline.Buffer) error {
	start := time.Now()
	db.Mu.Lock()
	db.rowID++
	id := db.rowID
	db.Mu.Unlock()

	r := buildRow(db.NVM, id, b.MT, db.ChunkSize(), db.St)
	db.St.AddFlush(time.Since(start), b.MT.ApproximateBytes())

	db.Mu.Lock()
	// Stamp the consumption origin at publication time, under the
	// same lock the column job advances the cursor with — a
	// stamp taken earlier could predate a whole column extraction
	// and wrongly mark the row's copy of that range as consumed. The
	// row is published before the engine drops the buffer from its
	// queue, so a reader always finds the data in one place or both.
	r.joinCycle = db.cycle
	r.sufFrom = db.cursor
	db.rows = append([]*row{r}, db.rows...)
	db.liveBytes += r.size
	db.Mu.Unlock()
	return nil
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

// compactOneColumn, the column job, extracts the next column [cursor,
// end) across all rows and merges it directly into L1 — a small, bounded
// unit of work, so the container drains smoothly instead of in L0-sized
// lurches.
func (db *DB) compactOneColumn() error {
	start := time.Now()
	db.Mu.Lock()
	rows := append([]*row(nil), db.rows...)
	cycle, cursor := db.cycle, db.cursor
	db.Mu.Unlock()

	// Gather per-row iterators positioned at the cursor. A row that
	// joined mid-cycle already had its suffix consumed by this cycle's
	// earlier columns — skip those entries so each version is extracted
	// exactly once in its lifetime.
	var its []iterx.Iterator
	for _, r := range rows {
		it := r.newIter(db.St)
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
		if colBytes >= db.columnBytes && lastKey != nil && !bytes.Equal(k, lastKey) {
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
		if err := db.LSM.MergeIntoLevel(1, ci, smallest, largest); err != nil {
			panic(err)
		}
	}

	// Advance the cursor, retire consumed bytes, drop dead rows.
	db.Mu.Lock()
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
			r.release(db.NVM)
			continue
		}
		live = append(live, r)
	}
	db.rows = live
	db.Mu.Unlock()
	db.St.AddCompaction(time.Since(start))
	return nil
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

// getRows probes the matrix container rows newest first, paying row
// deserialization, and skips a row's copy of a key that column
// compaction has already moved into L1.
func (db *DB) getRows(key []byte) ([]byte, keys.Kind, bool) {
	db.Mu.Lock()
	rows := append([]*row(nil), db.rows...)
	db.Mu.Unlock()
	for _, r := range rows {
		db.Mu.Lock()
		consumed := db.consumedLocked(r, key)
		db.Mu.Unlock()
		if consumed {
			continue
		}
		if v, _, kind, ok := r.get(key, db.St); ok {
			return v, kind, true
		}
	}
	return nil, 0, false
}

// rowSources appends an iterator over every row, in full: the visibility
// wrapper collapses a row's duplicates of L1+ copies (same versions).
// Mu held.
func (db *DB) rowSources(its []iterx.Iterator) []iterx.Iterator {
	for _, r := range db.rows {
		its = append(its, r.newIter(db.St))
	}
	return its
}

// Flush forces the memtable into the container and drains compactions.
func (db *DB) Flush() error {
	if err := db.Rotate(); err != nil {
		return err
	}
	db.Drain()
	return nil
}

// ContainerBytes returns the live (unconsumed) bytes in the matrix
// container (diagnostics).
func (db *DB) ContainerBytes() int64 {
	db.Mu.Lock()
	defer db.Mu.Unlock()
	return db.liveBytes
}

var _ kvstore.Store = (*DB)(nil)
