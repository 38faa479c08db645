package lsm

import (
	"fmt"
	"testing"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/stats"
)

func TestFlushToL0SizedSplitsTables(t *testing.T) {
	st := &stats.Recorder{}
	l := New(testOptions(st))
	defer l.Close()
	kvs := map[string]string{}
	for i := 0; i < 400; i++ {
		kvs[fmt.Sprintf("key-%05d", i)] = fmt.Sprintf("%0128d", i)
	}
	// ~56 KB of payload split into ≤8 KB tables → several L0 files.
	if err := l.FlushToL0(memIter(t, kvs, 1), 8<<10); err != nil {
		t.Fatal(err)
	}
	if n := l.L0Count(); n < 4 {
		t.Errorf("FlushToL0 produced %d tables, expected a split", n)
	}
	for k, v := range kvs {
		got, _, _, ok := l.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q ok=%v", k, got, ok)
		}
	}
}

// colSource adapts a slice to iterx.Iterator for MergeIntoLevel.
type colSource struct {
	keys, vals []string
	seqs       []uint64
	pos        int
}

func (c *colSource) SeekToFirst() { c.pos = 0 }
func (c *colSource) Seek(k []byte) {
	c.pos = 0
	for c.pos < len(c.keys) && c.keys[c.pos] < string(k) {
		c.pos++
	}
}
func (c *colSource) Next()           { c.pos++ }
func (c *colSource) Valid() bool     { return c.pos < len(c.keys) }
func (c *colSource) Key() []byte     { return []byte(c.keys[c.pos]) }
func (c *colSource) Value() []byte   { return []byte(c.vals[c.pos]) }
func (c *colSource) Seq() uint64     { return c.seqs[c.pos] }
func (c *colSource) Kind() keys.Kind { return keys.KindSet }

var _ iterx.Iterator = (*colSource)(nil)

func TestMergeIntoLevelReplacesOverlaps(t *testing.T) {
	st := &stats.Recorder{}
	opts := testOptions(st)
	opts.L0Slowdown = 1 // drain L0 eagerly so the seed data settles in L1
	l := New(opts)
	defer l.Close()

	// Seed L1 via a normal flush + compaction drain.
	base := map[string]string{}
	for i := 0; i < 200; i++ {
		base[fmt.Sprintf("key-%05d", i)] = "old"
	}
	if err := l.FlushToL0(memIter(t, base, 1), 0); err != nil {
		t.Fatal(err)
	}
	l.WaitIdle()

	// Column: newer versions of a key subrange, straight into L1.
	col := &colSource{}
	for i := 50; i < 100; i++ {
		col.keys = append(col.keys, fmt.Sprintf("key-%05d", i))
		col.vals = append(col.vals, "new")
		col.seqs = append(col.seqs, uint64(1000+i))
	}
	if err := l.MergeIntoLevel(1, col, []byte(col.keys[0]), []byte(col.keys[len(col.keys)-1])); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%05d", i)
		want := "old"
		if i >= 50 && i < 100 {
			want = "new"
		}
		got, _, _, ok := l.Get([]byte(k))
		if !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q ok=%v, want %q", k, got, ok, want)
		}
	}
	// Level ordering invariant: files sorted, non-overlapping.
	l.mu.Lock()
	defer l.mu.Unlock()
	for lvl := 1; lvl < len(l.files); lvl++ {
		for i := 1; i < len(l.files[lvl]); i++ {
			if string(l.files[lvl][i-1].Largest) >= string(l.files[lvl][i].Smallest) {
				t.Fatalf("level %d files overlap after MergeIntoLevel", lvl)
			}
		}
	}
}

func TestMergeIntoLevelValidation(t *testing.T) {
	st := &stats.Recorder{}
	l := New(testOptions(st))
	defer l.Close()
	if err := l.MergeIntoLevel(0, &colSource{}, nil, nil); err == nil {
		t.Error("MergeIntoLevel(0) accepted")
	}
	if err := l.MergeIntoLevel(99, &colSource{}, nil, nil); err == nil {
		t.Error("MergeIntoLevel(99) accepted")
	}
}

func TestL0GetPicksNewestBySeq(t *testing.T) {
	// Two L0 tables with interleaved sequence ranges for the same key —
	// the NoveLSM dual-pipeline case. File order must not decide.
	st := &stats.Recorder{}
	l := New(testOptions(st))
	defer l.Close()
	older := &colSource{keys: []string{"k"}, vals: []string{"newer-seq"}, seqs: []uint64{100}}
	if err := l.FlushToL0(older, 0); err != nil {
		t.Fatal(err)
	}
	// This file is added later (newer by file order) but holds an older seq.
	newerFile := &colSource{keys: []string{"k"}, vals: []string{"older-seq"}, seqs: []uint64{50}}
	if err := l.FlushToL0(newerFile, 0); err != nil {
		t.Fatal(err)
	}
	v, seq, _, ok := l.Get([]byte("k"))
	if !ok || string(v) != "newer-seq" || seq != 100 {
		t.Fatalf("L0 Get = %q seq=%d, want newest by sequence", v, seq)
	}
}

// TestMergeIntoLevelExcludesCompaction: a column merge into L1 and the
// tree's own L1→L2 compaction never run at once. Seeding L1 past its cap
// queues that compaction; tombstones merged straight after must shadow
// every seeded key. Were the two to overlap, the merge would see L2 empty,
// drop its tombstones as bottom-level, and the compaction would then
// install the seeded values in L2, readable again.
func TestMergeIntoLevelExcludesCompaction(t *testing.T) {
	const rounds, n = 200, 400
	seed, dels := map[string]string{}, map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		seed[k], dels[k] = fmt.Sprintf("%0100d", i), "<del>"
	}
	leaked := 0
	for r := 0; r < rounds; r++ {
		l := New(testOptions(&stats.Recorder{}))
		lo, hi := []byte("key-00000"), []byte(fmt.Sprintf("key-%05d", n-1))
		if err := l.MergeIntoLevel(1, memIter(t, seed, 1), lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := l.MergeIntoLevel(1, memIter(t, dels, n+1), lo, hi); err != nil {
			t.Fatal(err)
		}
		l.WaitIdle()
		for k := range seed {
			if _, _, kind, ok := l.Get([]byte(k)); ok && kind != keys.KindDelete {
				leaked++
				break
			}
		}
		l.Close()
	}
	if leaked > 0 {
		t.Fatalf("%d of %d rounds left a deleted key readable", leaked, rounds)
	}
}
