// Package lsm implements a classic leveled LSM-tree over SSTables on a
// simulated block device — LevelDB's on-disk half. It is the shared
// substrate for every system in the comparison that keeps block-format
// data:
//
//   - the LevelDB-style baseline (its entire persistent store),
//   - NoveLSM (SSTables below its NVM memtable),
//   - MatrixKV (levels L1+ below the matrix container),
//   - MioDB's DRAM-NVM-SSD mode (SSTables below the elastic buffer).
//
// It reproduces the behaviours the paper measures against: leveled
// compaction with a 10× fanout, L0 file-count write throttling (slowdown)
// and blocking (stop) — the sources of cumulative and interval stalls —
// and the compaction rewrite traffic that dominates write amplification.
package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/jobs"
	"miodb/internal/keys"
	"miodb/internal/sstable"
	"miodb/internal/stats"
	"miodb/internal/vfs"
)

// Options configures the tree. Zero fields take scaled-down defaults that
// preserve the paper's ratios (64 KB tables standing in for 64 MB, 10×
// fanout, LevelDB's 4/8 L0 thresholds).
type Options struct {
	Disk  *vfs.Disk
	Stats *stats.Recorder
	// TableSize is the target SSTable size.
	TableSize int64
	// L1Size caps level 1; level k caps at L1Size × Fanout^(k-1).
	L1Size int64
	// Fanout is the per-level size ratio (paper: amplification factor 10).
	Fanout int
	// NumLevels bounds the tree depth.
	NumLevels int
	// BlockSize is the SSTable data block size.
	BlockSize int
	// BloomBitsPerKey sizes per-table bloom filters.
	BloomBitsPerKey int
	// L0Slowdown and L0Stop are L0 file-count thresholds for write
	// throttling and write blocking.
	L0Slowdown, L0Stop int
}

func (o Options) withDefaults() Options {
	if o.TableSize <= 0 {
		o.TableSize = 64 << 10
	}
	if o.L1Size <= 0 {
		o.L1Size = 10 * o.TableSize
	}
	if o.Fanout <= 0 {
		o.Fanout = 10
	}
	if o.NumLevels <= 0 {
		o.NumLevels = 7
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 16
	}
	if o.L0Slowdown <= 0 {
		o.L0Slowdown = 4
	}
	if o.L0Stop <= 0 {
		o.L0Stop = 8
	}
	return o
}

// FileMeta describes one SSTable in the tree.
type FileMeta struct {
	ID                uint64
	Name              string
	Size              int64
	Smallest, Largest []byte
	table             *sstable.Table
}

// Levels is the leveled tree. All public methods are safe for concurrent
// use. Compaction is one job on a job table (internal/jobs) with its own
// runner; a level merge from outside (MergeIntoLevel) excludes it, so the
// two never read the same file at once.
type Levels struct {
	opts Options

	mu         sync.Mutex
	bg         *jobs.Table // on mu; broadcast when the shape changes
	compaction *jobs.Job
	files      [][]*FileMeta
	nextID     uint64
	compactPtr []int // round-robin compaction cursor per level
}

// New creates an empty tree and starts its compaction runner.
func New(opts Options) *Levels {
	opts = opts.withDefaults()
	l := &Levels{
		opts:       opts,
		files:      make([][]*FileMeta, opts.NumLevels),
		compactPtr: make([]int, opts.NumLevels),
		nextID:     1,
	}
	l.bg = jobs.New(&l.mu, nil)
	l.compaction = &jobs.Job{
		Name:  "compaction",
		Ready: func() bool { return l.pickLocked() >= 0 },
		Run:   l.compact,
	}
	l.bg.Start([]*jobs.Job{l.compaction})
	return l
}

// Close stops the compaction runner: a compaction in flight finishes,
// none starts.
func (l *Levels) Close() { l.bg.Abandon() }

// Options returns the effective options.
func (l *Levels) Options() Options { return l.opts }

// FlushToL0 serializes the iterator's content into new L0 SSTables of at
// most maxBytes each, or into one table when maxBytes ≤ 0 — a very large
// buffer (NoveLSM's NVM memtable) spills as several. It blocks the caller
// for the full serialization + device write — the flush cost the paper
// measures in Fig 2(c) and Table 1.
func (l *Levels) FlushToL0(it iterx.Iterator, maxBytes int64) error {
	if maxBytes <= 0 {
		maxBytes = 1 << 62
	}
	metas, err := l.buildTables(it, maxBytes)
	if err != nil {
		return err
	}
	l.mu.Lock()
	// L0 is ordered newest first.
	l.files[0] = append(metas, l.files[0]...)
	l.bg.Broadcast()
	l.mu.Unlock()
	return nil
}

// buildTables writes the iterator into SSTables of at most maxBytes each.
func (l *Levels) buildTables(it iterx.Iterator, maxBytes int64) ([]*FileMeta, error) {
	var out []*FileMeta
	var b *sstable.Builder
	var meta *FileMeta

	finish := func() error {
		if b == nil {
			return nil
		}
		if err := b.Finish(); err != nil {
			return err
		}
		r, err := l.opts.Disk.Open(meta.Name)
		if err != nil {
			return err
		}
		t, err := sstable.Open(r, l.opts.Stats)
		if err != nil {
			return err
		}
		meta.table = t
		meta.Size = t.Size
		meta.Smallest = t.Smallest
		meta.Largest = t.Largest
		out = append(out, meta)
		b, meta = nil, nil
		return nil
	}

	for it.SeekToFirst(); it.Valid(); it.Next() {
		if b == nil {
			l.mu.Lock()
			id := l.nextID
			l.nextID++
			l.mu.Unlock()
			meta = &FileMeta{ID: id, Name: fmt.Sprintf("%06d.sst", id)}
			b = sstable.NewBuilder(l.opts.Disk.Create(meta.Name), sstable.BuilderOptions{
				BlockSize:       l.opts.BlockSize,
				BloomBitsPerKey: l.opts.BloomBitsPerKey,
				Stats:           l.opts.Stats,
			})
		}
		if err := b.Add(it.Key(), it.Seq(), it.Kind(), it.Value()); err != nil {
			return nil, err
		}
		if b.EstimatedSize() >= maxBytes {
			if err := finish(); err != nil {
				return nil, err
			}
		}
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// L0Count returns the number of level-0 tables (the stall signal).
func (l *Levels) L0Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.files[0])
}

// WriteDelay reports how the write path must throttle right now:
// a positive sleep duration when L0 is at the slowdown threshold
// (cumulative stall), or block=true when it is at the stop threshold
// (interval stall).
func (l *Levels) WriteDelay() (sleep time.Duration, block bool) {
	n := l.L0Count()
	switch {
	case n >= l.opts.L0Stop:
		return 0, true
	case n >= l.opts.L0Slowdown:
		return time.Millisecond, false // LevelDB's 1 ms per-write slowdown
	default:
		return 0, false
	}
}

// WaitL0BelowStop blocks until L0 drains below the stop threshold,
// returning the time spent blocked (the interval stall).
func (l *Levels) WaitL0BelowStop() time.Duration {
	start := time.Now()
	l.mu.Lock()
	l.bg.Wait(func() bool { return len(l.files[0]) < l.opts.L0Stop })
	l.mu.Unlock()
	return time.Since(start)
}

// Get searches the tree for the newest version of key.
func (l *Levels) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	l.mu.Lock()
	snapshot := make([][]*FileMeta, len(l.files))
	for i, fs := range l.files {
		snapshot[i] = fs
	}
	l.mu.Unlock()

	// L0: files overlap arbitrarily, and when two buffers feed L0 (e.g.
	// NoveLSM's DRAM and NVM memtables) their sequence ranges interleave
	// across files — so pick the newest version by sequence, not by file
	// order.
	var bestV []byte
	var bestS uint64
	var bestK keys.Kind
	bestFound := false
	for _, f := range snapshot[0] {
		if !keyInRange(key, f) {
			continue
		}
		if v, s, k, found := f.table.Get(key); found && (!bestFound || s > bestS) {
			bestV, bestS, bestK, bestFound = v, s, k, true
		}
	}
	if bestFound {
		return bestV, bestS, bestK, true
	}
	// L1+: at most one file can contain the key.
	for level := 1; level < len(snapshot); level++ {
		for _, f := range snapshot[level] {
			if keyInRange(key, f) {
				if v, s, k, found := f.table.Get(key); found {
					return v, s, k, true
				}
				break
			}
			if bytes.Compare(key, f.Smallest) < 0 {
				break // sorted level; no later file can contain key
			}
		}
	}
	return nil, 0, 0, false
}

func keyInRange(key []byte, f *FileMeta) bool {
	return bytes.Compare(key, f.Smallest) >= 0 && bytes.Compare(key, f.Largest) <= 0
}

// Iterators returns one iterator per live table (newest first), for scans.
func (l *Levels) Iterators() []iterx.Iterator {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []iterx.Iterator
	for _, fs := range l.files {
		for _, f := range fs {
			out = append(out, f.table.NewIterator())
		}
	}
	return out
}

// LevelSizes returns the byte size of each level (diagnostics).
func (l *Levels) LevelSizes() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int64, len(l.files))
	for i, fs := range l.files {
		for _, f := range fs {
			out[i] += f.Size
		}
	}
	return out
}

// WaitIdle blocks until no compaction is needed or running (benchmarks
// call it to separate load and read phases).
func (l *Levels) WaitIdle() {
	l.mu.Lock()
	l.bg.WaitIdle()
	l.mu.Unlock()
}

// maxLevelBytes returns the size cap of a level (level ≥ 1).
func (l *Levels) maxLevelBytes(level int) int64 {
	size := l.opts.L1Size
	for i := 1; i < level; i++ {
		size *= int64(l.opts.Fanout)
	}
	return size
}

// pickLocked chooses the level most in need of compaction, or -1.
// L0 scores by file count, deeper levels by size ratio, LevelDB-style.
func (l *Levels) pickLocked() int {
	bestLevel, bestScore := -1, 1.0
	score0 := float64(len(l.files[0])) / float64(l.opts.L0Slowdown)
	if score0 >= bestScore {
		bestLevel, bestScore = 0, score0
	}
	for level := 1; level < len(l.files)-1; level++ {
		var size int64
		for _, f := range l.files[level] {
			size += f.Size
		}
		score := float64(size) / float64(l.maxLevelBytes(level))
		if score > bestScore {
			bestLevel, bestScore = level, score
		}
	}
	return bestLevel
}
