package iterx

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"miodb/internal/keys"
)

// Single is one entry of a sliceIter.
type Single struct {
	K  []byte
	V  []byte
	S  uint64
	Kd keys.Kind
}

// sliceIter drives the combinators from plain entry slices.
type sliceIter struct {
	entries []Single
	pos     int
}

func newSliceIter(entries ...Single) *sliceIter {
	// Entries must be in (key asc, seq desc) order.
	sort.Slice(entries, func(i, j int) bool {
		return keys.Compare(entries[i].K, entries[i].S, entries[j].K, entries[j].S) < 0
	})
	return &sliceIter{entries: entries}
}

func (s *sliceIter) SeekToFirst() { s.pos = 0 }
func (s *sliceIter) Seek(key []byte) {
	s.pos = sort.Search(len(s.entries), func(i int) bool {
		return bytes.Compare(s.entries[i].K, key) >= 0
	})
}
func (s *sliceIter) Next()           { s.pos++ }
func (s *sliceIter) Valid() bool     { return s.pos < len(s.entries) }
func (s *sliceIter) Key() []byte     { return s.entries[s.pos].K }
func (s *sliceIter) Value() []byte   { return s.entries[s.pos].V }
func (s *sliceIter) Seq() uint64     { return s.entries[s.pos].S }
func (s *sliceIter) Kind() keys.Kind { return s.entries[s.pos].Kd }

func e(k string, seq uint64, v string) Single {
	return Single{K: []byte(k), V: []byte(v), S: seq, Kd: keys.KindSet}
}

func del(k string, seq uint64) Single {
	return Single{K: []byte(k), S: seq, Kd: keys.KindDelete}
}

func TestMergingInterleavesInOrder(t *testing.T) {
	a := newSliceIter(e("a", 1, "av"), e("c", 3, "cv"), e("e", 5, "ev"))
	b := newSliceIter(e("b", 2, "bv"), e("d", 4, "dv"))
	m := NewMerging(a, b)
	var got []string
	for m.SeekToFirst(); m.Valid(); m.Next() {
		got = append(got, string(m.Key()))
	}
	want := []string{"a", "b", "c", "d", "e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("merged order %v, want %v", got, want)
	}
}

// TestMergingReseekAfterExhaustion: a source the walk ran off the end of
// must come back on the next Seek or SeekToFirst; the heap drops it on
// exhaustion, so a rebuild over the heap alone would lose it for good.
func TestMergingReseekAfterExhaustion(t *testing.T) {
	a := newSliceIter(e("a", 1, "av"), e("b", 2, "bv"))
	b := newSliceIter(e("c", 3, "cv"), e("d", 4, "dv"), e("e", 5, "ev"))
	m := NewMerging(a, nil, b)
	walk := func() []string {
		var got []string
		for ; m.Valid(); m.Next() {
			got = append(got, string(m.Key()))
		}
		return got
	}
	m.SeekToFirst()
	if got := walk(); fmt.Sprint(got) != "[a b c d e]" {
		t.Fatalf("first walk %v", got)
	}
	m.Seek([]byte("b"))
	if got := walk(); fmt.Sprint(got) != "[b c d e]" {
		t.Fatalf("walk after Seek(b) on an exhausted merge: %v", got)
	}
	m.Seek([]byte("d")) // a is exhausted by the seek itself
	m.SeekToFirst()
	if got := walk(); fmt.Sprint(got) != "[a b c d e]" {
		t.Fatalf("walk after Seek(d), SeekToFirst: %v", got)
	}
}

func TestScanLimitStopAndError(t *testing.T) {
	src := newSliceIter(e("a", 1, "1"), e("b", 2, "2"), e("c", 3, "3"), e("d", 4, "4"))
	c := &errCursor{Visible: NewVisible(NewMerging(src))}
	var got []string
	collect := func(k, _ []byte) bool { got = append(got, string(k)); return true }
	if err := Scan(c, []byte("b"), 2, collect); err != nil || fmt.Sprint(got) != "[b c]" {
		t.Fatalf("Scan(b, 2) = %v, %v", got, err)
	}
	got = nil
	if err := Scan(c, nil, 0, func(k, _ []byte) bool { got = append(got, string(k)); return len(got) < 3 }); err != nil || fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("Scan stopped after 3 = %v, %v", got, err)
	}
	// An error raised mid-scan is returned; one present before the seek
	// stops the scan before fn runs.
	boom := fmt.Errorf("boom")
	got = nil
	c.failAt = "c"
	c.boom = boom
	if err := Scan(c, nil, 0, collect); err != boom {
		t.Fatalf("mid-scan error: %v", err)
	}
	got = nil
	if err := Scan(c, nil, 0, collect); err != boom || len(got) != 0 {
		t.Fatalf("Scan over a failed cursor = %v, %v", got, err)
	}
}

// errCursor is a Cursor whose Value latches boom at key failAt.
type errCursor struct {
	*Visible
	failAt string
	boom   error
	err    error
}

func (c *errCursor) Value() []byte {
	if c.failAt != "" && string(c.Key()) == c.failAt {
		c.err = c.boom
		return nil
	}
	return c.Visible.Value()
}

func (c *errCursor) Err() error { return c.err }

func TestMergingVersionsNewestFirst(t *testing.T) {
	a := newSliceIter(e("k", 5, "v5"), e("k", 1, "v1"))
	b := newSliceIter(e("k", 3, "v3"))
	m := NewMerging(a, b)
	var seqs []uint64
	for m.SeekToFirst(); m.Valid(); m.Next() {
		seqs = append(seqs, m.Seq())
	}
	if fmt.Sprint(seqs) != fmt.Sprint([]uint64{5, 3, 1}) {
		t.Errorf("version order %v", seqs)
	}
}

func TestMergingSeekAndEmptySources(t *testing.T) {
	a := newSliceIter(e("b", 1, "bv"), e("d", 2, "dv"))
	empty := newSliceIter()
	m := NewMerging(a, empty, nil)
	m.Seek([]byte("c"))
	if !m.Valid() || string(m.Key()) != "d" {
		t.Fatalf("Seek landed on %q", m.Key())
	}
	m.Seek([]byte("z"))
	if m.Valid() {
		t.Error("Seek past end still valid")
	}
	m2 := NewMerging()
	m2.SeekToFirst()
	if m2.Valid() {
		t.Error("empty merge valid")
	}
}

func TestVisibleCollapsesVersionsAndTombstones(t *testing.T) {
	a := newSliceIter(
		e("a", 5, "a-new"), e("a", 1, "a-old"),
		del("b", 6), e("b", 2, "b-old"),
		e("c", 3, "c"),
	)
	v := NewVisible(a)
	var got []string
	for v.SeekToFirst(); v.Valid(); v.Next() {
		got = append(got, fmt.Sprintf("%s=%s", v.Key(), v.Value()))
	}
	want := "[a=a-new c=c]"
	if fmt.Sprint(got) != want {
		t.Errorf("visible = %v, want %s", got, want)
	}
}

func TestVisibleSeekSkipsHiddenKeys(t *testing.T) {
	a := newSliceIter(del("b", 9), e("b", 2, "b"), e("c", 3, "c"))
	v := NewVisible(a)
	v.Seek([]byte("b"))
	if !v.Valid() || string(v.Key()) != "c" {
		t.Fatalf("Seek(b) landed on %q", v.Key())
	}
}

func TestQuickMergeVisibleEqualsModel(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build 3 shards of versioned writes; model keeps newest per key.
		shards := make([][]Single, 3)
		model := map[string]string{}
		for i, r := range raw {
			k := fmt.Sprintf("k%02d", r%50)
			v := fmt.Sprintf("v%d", i)
			seq := uint64(i + 1)
			kind := keys.KindSet
			if r%7 == 0 {
				kind = keys.KindDelete
			}
			shards[int(r)%3] = append(shards[int(r)%3], Single{K: []byte(k), V: []byte(v), S: seq, Kd: kind})
			if kind == keys.KindDelete {
				delete(model, k)
			} else {
				model[k] = v
			}
		}
		its := make([]Iterator, 3)
		for i := range shards {
			its[i] = newSliceIter(shards[i]...)
		}
		vis := NewVisible(NewMerging(its...))
		got := map[string]string{}
		var prev []byte
		for vis.SeekToFirst(); vis.Valid(); vis.Next() {
			if prev != nil && bytes.Compare(vis.Key(), prev) <= 0 {
				return false
			}
			prev = append(prev[:0], vis.Key()...)
			got[string(vis.Key())] = string(vis.Value())
		}
		if len(got) != len(model) {
			return false
		}
		for k, v := range model {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
