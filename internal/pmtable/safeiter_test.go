package pmtable

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
)

// SafeIterator chases level-0 pointers while its table is settled and
// re-seeks otherwise. These tests drive a merge by hand between iterator
// steps and hold every position the iterator yields to a re-seek-only
// oracle — the iterator as it was before it learned to chase pointers —
// stepped over the same interleaving.

// reseek is the oracle: every step a succSafe probe from the live heads,
// whatever table it lands on.
type reseek struct {
	src   succSource
	key   []byte
	seq   uint64
	valid bool
}

func (o *reseek) seek(key []byte, seq uint64) {
	n, _ := o.src.succSafe(key, seq)
	if o.valid = !n.IsNil(); o.valid {
		o.key, o.seq = append(o.key[:0], n.Key()...), n.Seq()
	}
}
func (o *reseek) first() { o.seek(nil, keys.MaxSeq) }
func (o *reseek) next() {
	if o.valid {
		o.seek(o.key, o.seq-1)
	}
}

type pos struct {
	key string
	seq uint64
}

func (p pos) String() string { return fmt.Sprintf("(%s, %d)", p.key, p.seq) }

// scan steps a SafeIterator and its oracle together.
type scan struct {
	t    *testing.T
	what string
	it   *SafeIterator
	o    reseek
	seen []pos
}

// newScan opens a scan of a table or of a merge entry.
func newScan(t *testing.T, what string, src interface {
	succSource
	NewSafeIterator() *SafeIterator
}) *scan {
	s := &scan{t: t, what: what, it: src.NewSafeIterator(), o: reseek{src: src}}
	s.it.SeekToFirst()
	s.o.first()
	s.check()
	return s
}

// check compares the two positions. No merge action runs between a step
// and its check, so the licence the step left behind must still hold: a
// table that was unsettled when the iterator probed it never comes back.
func (s *scan) check() {
	s.t.Helper()
	if s.it.Valid() != s.o.valid {
		s.t.Fatalf("%s: after %v the iterator is valid=%v, the re-seek oracle valid=%v",
			s.what, s.seen, s.it.Valid(), s.o.valid)
	}
	if s.o.valid {
		got, want := pos{string(s.it.Key()), s.it.Seq()}, pos{string(s.o.key), s.o.seq}
		if got != want {
			s.t.Fatalf("%s: after %v the iterator yields %v, the re-seek oracle %v", s.what, s.seen, got, want)
		}
		if n := len(s.seen); n > 0 && keys.Compare([]byte(s.seen[n-1].key), s.seen[n-1].seq, []byte(got.key), got.seq) >= 0 {
			s.t.Fatalf("%s: %v yielded after %v", s.what, got, s.seen[n-1])
		}
		s.seen = append(s.seen, got)
	}
	if from := s.it.from; from != nil && !from.settled() {
		s.t.Fatalf("%s: after %v the iterator holds a licence from unsettled table %d", s.what, s.seen, from.ID)
	}
}

func (s *scan) next() {
	s.t.Helper()
	s.it.Next()
	s.o.next()
	s.check()
}

// finish steps to the end and compares everything yielded with want.
func (s *scan) finish(want ...pos) {
	s.t.Helper()
	for s.it.Valid() {
		s.next()
	}
	if fmt.Sprint(s.seen) != fmt.Sprint(want) {
		s.t.Fatalf("%s: yielded %v, want %v", s.what, s.seen, want)
	}
}

func (s *scan) fast() bool { return s.it.from != nil }

// handMerge is a merge stepped by hand, published the way the engine
// publishes it: activeMerge on both tables before the first node moves,
// forward on both once the result exists.
type handMerge struct {
	*Merge
	d drain
}

func startMerge(newT, oldT *Table) *handMerge {
	m := &handMerge{Merge: NewMerge(newT, oldT)}
	newT.SetActiveMerge(m.Merge)
	oldT.SetActiveMerge(m.Merge)
	return m
}

func (m *handMerge) steps(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !m.step(&m.d) {
			t.Fatalf("merge drained after %d of %d steps", i, n)
		}
	}
}

func (m *handMerge) complete(t *testing.T) *Table {
	t.Helper()
	if m.step(&m.d) {
		t.Fatal("merge completed with the newtable not drained")
	}
	result := m.finish()
	m.New.SetForward(result)
	m.Old.SetForward(result)
	return result
}

func set(key string, seq uint64) version {
	return version{key: key, value: fmt.Sprintf("%s@%d", key, seq), seq: seq, kind: keys.KindSet}
}

func at(key string, seq uint64) pos { return pos{key, seq} }

// pair flushes an oldtable and a newtable; versions are given in commit
// order (ascending sequence).
func pair(t *testing.T, oldVs, newVs []version) (old, newer *Table) {
	dram, nv := devices()
	return flushVersions(t, dram, nv, 1, oldVs), flushVersions(t, dram, nv, 2, newVs)
}

const n0 = newSeqBase

func TestSafeIteratorNodeMigratedUnderIt(t *testing.T) {
	old, newer := pair(t,
		[]version{set("a", 1), set("c", 2), set("e", 3)},
		[]version{set("b", n0), set("d", n0+1), set("f", n0+2)})
	s := newScan(t, "newtable scan", newer)
	if !s.fast() {
		t.Fatal("a settled table did not license pointer chasing")
	}
	m := startMerge(newer, old)
	m.steps(t, 1) // b, the node under the iterator, now sits between a and c
	s.next()
	if s.fast() {
		t.Fatal("the iterator followed a migrated node's pointer")
	}
	m.steps(t, 1)
	// Without the re-seek the walk would continue in the oldtable and
	// never see f, which is still in the newtable.
	s.finish(at("b", n0), at("c", 2), at("d", n0+1), at("e", 3), at("f", n0+2))
}

func TestSafeIteratorNodeDroppedUnderIt(t *testing.T) {
	t.Run("superseded in the newtable", func(t *testing.T) {
		old, newer := pair(t,
			[]version{set("a", 1), set("z", 2)},
			[]version{set("k", n0), set("k", n0+1), set("m", n0+2), set("p", n0+3)})
		s := newScan(t, "newtable scan", newer)
		s.next() // on (k, n0): the version the merge is about to drop
		m := startMerge(newer, old)
		m.steps(t, 3) // k@n0+1 migrates, k@n0 is dropped, m migrates in front of z
		// The dropped node still points at m, and m now points at z: a
		// pointer chase yields m, z and skips p.
		s.finish(at("k", n0+1), at("k", n0), at("m", n0+2), at("p", n0+3), at("z", 2))
		if s.fast() {
			t.Fatal("the iterator chased pointers through a merging pair")
		}
	})
	t.Run("unlinked from the oldtable", func(t *testing.T) {
		old, newer := pair(t,
			[]version{set("a", 1), set("k", 2), set("z", 3)},
			[]version{set("k", n0), set("m", n0+1)})
		s := newScan(t, "oldtable scan", old)
		s.next() // on (k, 2)
		m := startMerge(newer, old)
		m.steps(t, 1) // k@n0 lands in front of the iterator, k@2 is unlinked behind it
		s.finish(at("a", 1), at("k", 2), at("m", n0+1), at("z", 3))
	})
	t.Run("dead", func(t *testing.T) {
		old, newer := pair(t,
			[]version{set("a", 1), set("c", 2), set("e", 3), set("g", 4)},
			[]version{set("b", n0), set("d", n0+1), set("f", n0+2)})
		s := newScan(t, "newtable scan", newer)
		s.next() // on d
		m := startMerge(newer, old)
		m.Dead = func(key []byte, _ uint64, _ keys.Kind) bool { return string(key) == "d" }
		m.steps(t, 2) // b migrates, d is dropped
		s.next()
		if s.fast() {
			t.Fatal("the iterator followed a dropped node's pointer")
		}
		m.steps(t, 1)
		s.finish(at("b", n0), at("d", n0+1), at("e", 3), at("f", n0+2), at("g", 4))
	})
}

func TestSafeIteratorInOldtableWhileNodesLand(t *testing.T) {
	old, newer := pair(t,
		[]version{set("a", 1), set("e", 2), set("i", 3)},
		[]version{set("b", n0), set("c", n0+1), set("f", n0+2), set("j", n0+3)})
	s := newScan(t, "oldtable scan", old) // on a; its old successor is e
	m := startMerge(newer, old)
	m.steps(t, 2) // b and c land between a and e
	s.next()
	if s.fast() {
		t.Fatal("the iterator chased pointers through a merging pair")
	}
	s.next()
	m.steps(t, 1) // f lands behind e, ahead of the iterator
	s.finish(at("a", 1), at("b", n0), at("c", n0+1), at("e", 2), at("f", n0+2), at("i", 3), at("j", n0+3))
}

// readsOf counts the device reads f makes.
func readsOf(nv *nvm.Device, f func()) (reads, bytes int64) {
	c0 := nv.Counters()
	f()
	c1 := nv.Counters()
	return c1.Reads - c0.Reads, c1.BytesRead - c0.BytesRead
}

func TestSafeIteratorAcrossFinishAndSecondMerge(t *testing.T) {
	dram, nv := devices()
	var oldVs, newVs, thirdVs []version
	for i := 0; i < 40; i++ {
		oldVs = append(oldVs, set(fmt.Sprintf("key-%03d", 3*i), uint64(1+i)))
		newVs = append(newVs, set(fmt.Sprintf("key-%03d", 3*i+1), uint64(n0+i)))
		thirdVs = append(thirdVs, set(fmt.Sprintf("key-%03d", 3*i+2), uint64(2*n0+i)))
	}
	old := flushVersions(t, dram, nv, 1, oldVs)
	newer := flushVersions(t, dram, nv, 2, newVs)
	third := flushVersions(t, dram, nv, 3, thirdVs)

	// One scan per way into the pair: each table, as a stale version
	// snapshot holds it, and the merge entry.
	so, sn := newScan(t, "oldtable scan", old), newScan(t, "newtable scan", newer)
	m := startMerge(newer, old)
	sm := newScan(t, "merge scan", m.Merge)
	scans := []*scan{so, sn, sm}
	for i := 0; i < 5; i++ {
		m.steps(t, 4)
		for _, s := range scans {
			s.next()
			if s.fast() {
				t.Fatalf("%s: chasing pointers while the merge runs", s.what)
			}
		}
	}
	m.steps(t, len(newVs)-20)
	result := m.complete(t)

	// The first step after the merge completes re-seeks, lands on the
	// result through forward (or the merge's own hand-off) and is licensed
	// again — by that seek, on that table.
	for _, s := range scans {
		s.next()
		if s.it.from != result {
			t.Fatalf("%s: not back on the fast path on the merge result", s.what)
		}
		// The metering contract of a settled step: one pointer, one key.
		reads, bytes := readsOf(nv, s.it.Next)
		s.o.next()
		s.check()
		if want := int64(8 + len(s.it.Key())); reads != 2 || bytes != want {
			t.Fatalf("%s: a settled step charged %d reads / %d B, want 2 / %d", s.what, reads, bytes, want)
		}
	}

	// The result enters a merge of its own mid-scan, as the oldtable.
	m2 := startMerge(third, result)
	for _, s := range scans {
		s.next() // merge published, no node moved yet
		if s.fast() {
			t.Fatalf("%s: chasing pointers on a table with a published merge", s.what)
		}
	}
	for i := 0; i < 5; i++ {
		m2.steps(t, 5)
		for _, s := range scans {
			s.next()
			if s.fast() {
				t.Fatalf("%s: chasing pointers while the second merge runs", s.what)
			}
		}
	}
	m2.steps(t, len(thirdVs)-25)
	final := m2.complete(t)
	for _, s := range scans {
		s.next()
		if s.it.from != final {
			t.Fatalf("%s: not back on the fast path on the second result", s.what)
		}
		for s.it.Valid() {
			s.next()
		}
		// Nothing is dropped here, so from its first key on each scan must
		// have seen every entry at or after its position when it got there.
		if last := s.seen[len(s.seen)-1]; last != at("key-119", 2*n0+39) {
			t.Fatalf("%s: scan ended at %v", s.what, last)
		}
	}
}

// A merge whose start the engine unwinds (the manifest append failed
// before any node moved) clears activeMerge again. Iterators that saw it
// published re-seek meanwhile and are licensed again only by a later
// probe of the table, never by the pointer they stood on.
func TestSafeIteratorStaysSlowUntilAFreshSeek(t *testing.T) {
	old, newer := pair(t,
		[]version{set("a", 1), set("c", 2), set("e", 3), set("g", 4)},
		[]version{set("b", n0), set("d", n0+1)})
	s := newScan(t, "oldtable scan", old)
	m := startMerge(newer, old)
	for i := 0; i < 2; i++ {
		s.next() // the merge idles: nothing moves, and still no pointer is trusted
		if s.fast() {
			t.Fatal("chasing pointers on a table with a published merge")
		}
	}
	newer.SetActiveMerge(nil)
	old.SetActiveMerge(nil)
	s.next()
	if s.it.from != old {
		t.Fatal("a re-seek that found the table settled did not license the next step")
	}
	m = startMerge(newer, old)
	m.steps(t, 2)
	s.finish(at("a", 1), at("b", n0), at("c", 2), at("e", 3), at("g", 4))
}

// TestSafeIteratorRandomInterleavings runs three tables through two
// merges — the first result entering the second as either side — with
// drops and dead entries, stepping scans of every table and merge at
// random points in between.
func TestSafeIteratorRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		keySpace := []int{3, 12, 60, 400}[seed%4]
		dram, nv := devices()
		var tables [3]*Table
		for i := range tables {
			vs := randomVersions(rnd, 1+rnd.Intn(120), keySpace, 1+uint64(i)*newSeqBase)
			tables[i] = flushVersions(t, dram, nv, uint64(i+1), vs)
		}
		horizon := uint64(rnd.Intn(3 * newSeqBase))
		gate := func(m *handMerge) {
			m.Drop = func(newerSeq uint64) bool { return newerSeq <= horizon }
			m.Dead = func(_ []byte, seq uint64, _ keys.Kind) bool { return seq%7 == 0 }
		}

		var scans []*scan
		open := func(s *scan) {
			for i := rnd.Intn(4); i > 0 && s.it.Valid(); i-- {
				s.next()
			}
			scans = append(scans, s)
		}
		// interleave runs the merge to its end, stepping and opening scans
		// on the way.
		interleave := func(m *handMerge, over ...*Table) *Table {
			for {
				for i := rnd.Intn(4); i > 0; i-- {
					if s := scans[rnd.Intn(len(scans))]; s.it.Valid() {
						s.next()
					}
				}
				if rnd.Intn(8) == 0 {
					tbl := over[rnd.Intn(len(over))]
					open(newScan(t, fmt.Sprintf("seed %d, late scan of table %d", seed, tbl.ID), tbl))
				}
				if !m.step(&m.d) {
					return m.complete(t)
				}
			}
		}
		for _, tbl := range tables {
			open(newScan(t, fmt.Sprintf("seed %d, scan of table %d", seed, tbl.ID), tbl))
		}

		// Merge 1 pairs two neighbours; merge 2 takes its result with the
		// third table, as the newtable or the oldtable.
		lo := int(seed % 2) // 0: (2→1) then (3→R); 1: (3→2) then (R→1)
		m1 := startMerge(tables[lo+1], tables[lo])
		gate(m1)
		open(newScan(t, fmt.Sprintf("seed %d, scan of merge 1", seed), m1.Merge))
		r := interleave(m1, tables[:]...)
		var m2 *handMerge
		if lo == 0 {
			m2 = startMerge(tables[2], r)
		} else {
			m2 = startMerge(r, tables[0])
		}
		gate(m2)
		open(newScan(t, fmt.Sprintf("seed %d, scan of merge 2", seed), m2.Merge))
		final := interleave(m2, append(tables[:], r)...)
		for _, s := range scans {
			for s.it.Valid() {
				s.next()
			}
		}
		if _, err := final.List().CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSafeIteratorUnderConcurrentMerge is the same ground under the race
// detector: scans of both tables run while a merger drains the pair and
// publishes the result. Every scan must ascend strictly and see every key
// its table held when it began.
func TestSafeIteratorUnderConcurrentMerge(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	dram, nv := devices()
	old := flushVersions(t, dram, nv, 1, randomVersions(rnd, 1500, 700, 1))
	newer := flushVersions(t, dram, nv, 2, randomVersions(rnd, 1500, 700, newSeqBase))
	keysOf := func(tbl *Table) map[string]bool {
		ks := map[string]bool{}
		for _, v := range collect(tbl.NewIterator()) {
			ks[v.key] = true
		}
		return ks
	}
	held := map[*Table]map[string]bool{old: keysOf(old), newer: keysOf(newer)}

	stop := make(chan struct{})
	var wg, scanning sync.WaitGroup
	for _, tbl := range []*Table{old, newer, old, newer} {
		wg.Add(1)
		scanning.Add(1)
		go func(tbl *Table) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				seen := map[string]bool{}
				var last pos
				it := tbl.NewSafeIterator()
				it.SeekToFirst()
				if round == 0 {
					scanning.Done() // the merge starts under a scan in progress
				}
				for ; it.Valid(); it.Next() {
					cur := pos{string(it.Key()), it.Seq()}
					if last.key != "" && keys.Compare([]byte(last.key), last.seq, []byte(cur.key), cur.seq) >= 0 {
						t.Errorf("scan of table %d: %v after %v", tbl.ID, cur, last)
						return
					}
					seen[cur.key], last = true, cur
				}
				for k := range held[tbl] {
					if !seen[k] {
						t.Errorf("scan of table %d, round %d: key %s skipped", tbl.ID, round, k)
						return
					}
				}
			}
		}(tbl)
	}
	scanning.Wait()
	m := NewMerge(newer, old)
	newer.SetActiveMerge(m)
	old.SetActiveMerge(m)
	result := m.Run()
	newer.SetForward(result)
	old.SetForward(result)
	close(stop)
	wg.Wait()
}

// BenchmarkSafeIteratorNext is one scan step over a level table of the
// benchmark's shape: chased through a settled table, and re-sought through
// a pair whose merge has started (and, here, stands still).
func BenchmarkSafeIteratorNext(b *testing.B) {
	build := func(b *testing.B) (old, newer *Table) {
		dram, nv := devices()
		var vs [2][]version
		for i := 0; i < 8000; i++ {
			vs[i%2] = append(vs[i%2], version{
				key: fmt.Sprintf("user%012d", i), value: string(make([]byte, 128)),
				seq: uint64(i%2)*newSeqBase + uint64(i) + 1, kind: keys.KindSet,
			})
		}
		return flushVersions(b, dram, nv, 1, vs[0]), flushVersions(b, dram, nv, 2, vs[1])
	}
	step := func(b *testing.B, it *SafeIterator) {
		b.ReportAllocs()
		it.SeekToFirst()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if it.Next(); !it.Valid() {
				it.SeekToFirst()
			}
		}
	}
	b.Run("settled", func(b *testing.B) {
		old, _ := build(b)
		step(b, old.NewSafeIterator())
	})
	b.Run("merging", func(b *testing.B) {
		old, newer := build(b)
		startMerge(newer, old)
		step(b, old.NewSafeIterator())
	})
}
