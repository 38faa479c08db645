package lsm

import (
	"bytes"
	"fmt"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
)

// compact, the compaction job, performs one compaction from the level
// most in need of it (pickLocked) into the next: its inputs are all of L0
// or one round-robin file of Ln, merged with every overlapping file of
// the next level into fresh SSTables there (mergeInto). The rewrite of
// next-level data is the write amplification the paper's Fig 2(d) and
// Fig 11 measure; while L0 is being compacted, incoming flushes stack up
// and the write path throttles — the stall mechanics of §2.3.
func (l *Levels) compact() error {
	l.mu.Lock()
	level := l.pickLocked()
	if level < 0 || len(l.files[level]) == 0 {
		l.mu.Unlock()
		return nil
	}
	// All L0 files participate (they overlap arbitrarily).
	inputs := append([]*FileMeta(nil), l.files[0]...)
	if level > 0 {
		ptr := l.compactPtr[level] % len(l.files[level])
		inputs = []*FileMeta{l.files[level][ptr]}
		l.compactPtr[level]++
	}
	l.mu.Unlock()

	var smallest, largest []byte
	srcs := make([]iterx.Iterator, len(inputs))
	for i, f := range inputs {
		if smallest == nil || bytes.Compare(f.Smallest, smallest) < 0 {
			smallest = f.Smallest
		}
		if largest == nil || bytes.Compare(f.Largest, largest) > 0 {
			largest = f.Largest
		}
		srcs[i] = f.table.NewIterator()
	}
	if err := l.mergeInto(level+1, srcs, inputs, smallest, largest); err != nil {
		// The simulated disk cannot fail; a build error is a programming
		// error worth surfacing loudly in tests.
		panic(err)
	}
	return nil
}

// mergeInto merges srcs with every file of level next overlapping
// [smallest, largest] — older duplicates dropped, tombstones only when
// nothing deeper can hold the key — and installs the result in next in
// place of those files, dropping inputs from the level above. Only the
// compaction job calls it, so the files it read are still there.
func (l *Levels) mergeInto(next int, srcs []iterx.Iterator, inputs []*FileMeta, smallest, largest []byte) error {
	start := time.Now()
	l.mu.Lock()
	dead := inputs
	for _, f := range l.files[next] {
		if bytes.Compare(f.Largest, smallest) >= 0 && bytes.Compare(f.Smallest, largest) <= 0 {
			dead = append(dead, f)
			srcs = append(srcs, f.table.NewIterator())
		}
	}
	l.mu.Unlock()
	outputs, err := l.buildTables(newDedup(iterx.NewMerging(srcs...), l.isBottom(next)), l.opts.TableSize)
	if err != nil {
		return err
	}

	drop := map[uint64]bool{}
	for _, f := range dead {
		drop[f.ID] = true
	}
	keep := func(fs []*FileMeta) []*FileMeta {
		out := fs[:0:0]
		for _, f := range fs {
			if !drop[f.ID] {
				out = append(out, f)
			}
		}
		return out
	}
	l.mu.Lock()
	l.files[next-1] = keep(l.files[next-1])
	l.files[next] = append(keep(l.files[next]), outputs...)
	sortBySmallest(l.files[next])
	l.mu.Unlock()

	// Remove the replaced files from the disk; open readers hold their data.
	for _, f := range dead {
		l.opts.Disk.Remove(f.Name)
	}
	if l.opts.Stats != nil {
		l.opts.Stats.AddCompaction(time.Since(start))
	}
	return nil
}

// isBottom reports whether no level below `level` holds data, so
// tombstones compacted into it can be dropped.
func (l *Levels) isBottom(level int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := level + 1; i < len(l.files); i++ {
		if len(l.files[i]) > 0 {
			return false
		}
	}
	return true
}

func sortBySmallest(fs []*FileMeta) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && bytes.Compare(fs[j].Smallest, fs[j-1].Smallest) < 0; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// dedup yields only the newest version of each key, optionally dropping
// tombstones (bottom-level semantics). Unlike iterx.Visible it keeps
// tombstones when they must shadow deeper levels.
type dedup struct {
	in             iterx.Iterator
	dropTombstones bool
	lastKey        []byte
	valid          bool
}

func newDedup(in iterx.Iterator, dropTombstones bool) *dedup {
	return &dedup{in: in, dropTombstones: dropTombstones}
}

func (d *dedup) advance() {
	for d.in.Valid() {
		k := d.in.Key()
		if d.lastKey != nil && bytes.Equal(k, d.lastKey) {
			d.in.Next()
			continue
		}
		d.lastKey = append(d.lastKey[:0], k...)
		if d.dropTombstones && d.in.Kind() == keys.KindDelete {
			d.in.Next()
			continue
		}
		d.valid = true
		return
	}
	d.valid = false
}

func (d *dedup) SeekToFirst() { d.in.SeekToFirst(); d.lastKey = nil; d.advance() }
func (d *dedup) Seek(key []byte) {
	d.in.Seek(key)
	d.lastKey = nil
	d.advance()
}
func (d *dedup) Next() {
	if !d.valid {
		return
	}
	d.in.Next()
	d.advance()
}
func (d *dedup) Valid() bool     { return d.valid }
func (d *dedup) Key() []byte     { return d.in.Key() }
func (d *dedup) Value() []byte   { return d.in.Value() }
func (d *dedup) Seq() uint64     { return d.in.Seq() }
func (d *dedup) Kind() keys.Kind { return d.in.Kind() }

var _ iterx.Iterator = (*dedup)(nil)

// MergeIntoLevel merges an external (key asc, seq desc) entry stream with
// every file of the target level overlapping [smallest, largest] and
// installs the result back into that level. MatrixKV's column compaction
// uses it to push matrix-container columns straight into L1, bypassing
// the L0 file-count machinery entirely — the fine-grained compaction that
// shortens its stalls. It runs as the compaction job (jobs.Exclusive): a
// tree compaction reading the same files would otherwise install what the
// merge replaced, and while the level below is still empty the merge
// drops its tombstones as bottom-level ones — a deleted key would come
// back.
func (l *Levels) MergeIntoLevel(level int, extra iterx.Iterator, smallest, largest []byte) error {
	if level < 1 || level >= len(l.files) {
		return fmt.Errorf("lsm: MergeIntoLevel(%d) out of range", level)
	}
	return l.bg.Exclusive(l.compaction, func() error {
		return l.mergeInto(level, []iterx.Iterator{extra}, nil, smallest, largest)
	})
}
