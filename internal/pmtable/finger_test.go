package pmtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// The zero-copy merge carries its oldtable splice from node to node (a
// finger search) and unlinks superseded versions with that same splice.
// These tests hold its output, entry for entry, to the merged iterator of
// its two inputs, and its crash states to what Resume can repair.

type version struct {
	key, value string
	seq        uint64
	kind       keys.Kind
}

func (v version) String() string { return fmt.Sprintf("(%s, %d, kind %d)", v.key, v.seq, v.kind) }

// newSeqBase separates the pair's sequence ranges: every newtable version
// is at or above it, every oldtable version below.
const newSeqBase = 10_000

// randomVersions draws n versions over a key space small enough that keys
// repeat — inside one table (runs of equal keys) and across the pair.
func randomVersions(rnd *rand.Rand, n, keySpace int, seqBase uint64) []version {
	vs := make([]version, 0, n)
	for i := 0; i < n; i++ {
		v := version{
			key:  fmt.Sprintf("key-%04d", rnd.Intn(keySpace)),
			seq:  seqBase + uint64(i),
			kind: keys.KindSet,
		}
		if rnd.Intn(8) == 0 {
			v.kind = keys.KindDelete
		} else {
			v.value = fmt.Sprintf("%s@%d", v.key, v.seq)
		}
		vs = append(vs, v)
	}
	return vs
}

// flushVersions builds a PMTable the real way: memtable → one-piece flush.
func flushVersions(t testing.TB, dram, nv *nvm.Device, id uint64, vs []version) *Table {
	t.Helper()
	mt, err := memtable.New(dram, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if err := mt.Add([]byte(v.key), []byte(v.value), v.seq, v.kind); err != nil {
			t.Fatal(err)
		}
	}
	tbl := Flush(nv, mt, id, vs[0].seq, vs[len(vs)-1].seq, fp())
	mt.Release()
	return tbl
}

func collect(it iterx.Iterator) []version {
	var out []version
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out = append(out, version{string(it.Key()), string(it.Value()), it.Seq(), it.Kind()})
	}
	return out
}

// expectMerged applies the merge's rules to the merged iterator of its two
// inputs (key ascending, sequence descending): a newtable version
// superseded by the newtable version migrated before it is dropped when
// the gate allows, a dead one is dropped outright, and oldtable versions
// behind a migrated newtable version of their key are unlinked when the
// gate allows at that version's sequence. Oldtable versions of keys the
// newtable does not touch all stay.
func expectMerged(inputs []version, drop func(uint64) bool, dead func(version) bool) []version {
	var out []version
	var last *version
	for i := range inputs {
		v := inputs[i]
		superseded := last != nil && last.key == v.key && drop(last.seq)
		if v.seq < newSeqBase {
			if !superseded {
				out = append(out, v)
			}
			continue
		}
		if superseded || dead(v) {
			continue
		}
		out = append(out, v)
		last = &inputs[i]
	}
	return out
}

func diffVersions(t *testing.T, what string, got, want []version) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("%s: entry %d missing, want %v (%d entries, want %d)", what, i, want[i], len(got), len(want))
		case i >= len(want):
			t.Fatalf("%s: extra entry %d %v (%d entries, want %d)", what, i, got[i], len(got), len(want))
		case got[i] != want[i]:
			t.Fatalf("%s: entry %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestMergeMatchesMergedIterator(t *testing.T) {
	always := func(uint64) bool { return true }
	never := func(uint64) bool { return false }
	nothing := func(version) bool { return false }
	cases := []struct {
		name string
		drop func(horizon uint64) func(uint64) bool
		dead func(version) bool
	}{
		{"duplicates dropped", func(uint64) func(uint64) bool { return always }, nothing},
		{"duplicates retained", func(uint64) func(uint64) bool { return never }, nothing},
		{"snapshot horizon", func(h uint64) func(uint64) bool {
			return func(newerSeq uint64) bool { return newerSeq <= h }
		}, nothing},
		{"dead entries", func(uint64) func(uint64) bool { return always }, func(v version) bool {
			return v.key[len(v.key)-1]%3 == 0 && v.seq%2 == 0
		}},
		{"dead entries under a horizon", func(h uint64) func(uint64) bool {
			return func(newerSeq uint64) bool { return newerSeq <= h }
		}, func(v version) bool { return v.seq%5 == 0 }},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 8; seed++ {
			what := fmt.Sprintf("%s, seed %d", tc.name, seed)
			rnd := rand.New(rand.NewSource(seed))
			// From a handful of keys (long runs of equal keys) to mostly
			// distinct ones.
			keySpace := []int{3, 12, 60, 400}[seed%4]
			nOld, nNew := 1+rnd.Intn(300), 1+rnd.Intn(300)
			dram, nv := devices()
			old := flushVersions(t, dram, nv, 1, randomVersions(rnd, nOld, keySpace, 1))
			newer := flushVersions(t, dram, nv, 2, randomVersions(rnd, nNew, keySpace, newSeqBase))
			drop := tc.drop(newSeqBase + uint64(rnd.Intn(nNew)))
			inputs := collect(iterx.NewMerging(newer.NewIterator(), old.NewIterator()))
			want := expectMerged(inputs, drop, tc.dead)

			m := NewMerge(newer, old)
			m.Drop = drop
			m.Dead = func(key []byte, seq uint64, kind keys.Kind) bool {
				return tc.dead(version{key: string(key), seq: seq, kind: kind})
			}
			dropped := 0
			m.OnDrop = func([]byte, keys.Kind) { dropped++ }
			merged := m.Run()

			diffVersions(t, what, collect(merged.NewIterator()), want)
			if n, err := merged.List().CheckInvariants(); err != nil || n != len(want) {
				t.Fatalf("%s: %d nodes linked, want %d: %v", what, n, len(want), err)
			}
			if merged.Count() != int64(len(want)) || dropped != len(inputs)-len(want) {
				t.Fatalf("%s: Count %d (want %d), %d drops observed (want %d)",
					what, merged.Count(), len(want), dropped, len(inputs)-len(want))
			}
			if !newer.List().Empty() {
				t.Fatalf("%s: newtable not drained", what)
			}
			moved := int64(0)
			for _, v := range want {
				if v.seq >= newSeqBase {
					moved++
				}
			}
			if m.Moved() != moved {
				t.Fatalf("%s: %d nodes moved, want %d", what, m.Moved(), moved)
			}
		}
	}
}

// powerCut is what cutMeter panics with.
type powerCut struct{}

// cutMeter meters the pair's arenas and the mark slot and cuts the power —
// a panic out of the drain — before the store after the left-th one. It
// asks every tally for the per-access seam (skiplist.EachAccessMeter), so
// OnWrite fires ahead of each individual store, not once per step after
// them; a tallied settlement reaching it would mean the seam is gone. It
// also counts loads, so that a walk that never ends — a cycle a broken
// merge or repair linked into a list, which Resume itself would walk —
// fails at once instead of spinning to the test timeout.
type cutMeter struct {
	left   int // stores until the cut; negative = never
	writes int
	reads  int
}

// cutMeterReads bounds the loads one meter sees; the most any of these
// tests makes on one meter is about 5 000.
const cutMeterReads = 1 << 20

func (c *cutMeter) ChargeEachAccess() {}
func (c *cutMeter) OnRead(int) {
	if c.reads++; c.reads > cutMeterReads {
		panic("cutMeter: a walk did not end; is there a cycle in a list?")
	}
}
func (c *cutMeter) OnReads(int, int)  { panic("cutMeter: loads settled in a tally") }
func (c *cutMeter) OnWrites(int, int) { panic("cutMeter: stores settled in a tally") }
func (c *cutMeter) OnWrite(int) {
	if c.left == 0 {
		panic(powerCut{})
	}
	if c.left > 0 {
		c.left--
	}
	c.writes++
}

// isCut takes what a deferred recover returned: it reports whether a power
// cut came, and panics on anything else.
func isCut(r any) bool {
	if r == nil {
		return false
	}
	if _, ok := r.(powerCut); !ok {
		panic(r)
	}
	return true
}

// linkVersions builds a table node by node in one arena metered by meter.
func linkVersions(t testing.TB, space *vaddr.Space, meter vaddr.Meter, id uint64, vs []version) *Table {
	t.Helper()
	region := space.NewRegion(1<<20, meter)
	list, err := skiplist.New(region)
	if err != nil {
		t.Fatal(err)
	}
	filter := fp().NewFilter()
	for _, v := range vs {
		if err := list.Insert([]byte(v.key), []byte(v.value), v.seq, v.kind); err != nil {
			t.Fatal(err)
		}
		filter.Add([]byte(v.key))
	}
	return &Table{
		ID: id, list: list, filter: filter, regions: []*vaddr.Region{region},
		MinSeq: vs[0].seq, MaxSeq: vs[len(vs)-1].seq,
	}
}

// newestVersions maps each key of a list (key ascending, sequence
// descending) to its first, newest, version.
func newestVersions(vs []version) map[string]version {
	newest := map[string]version{}
	for _, v := range vs {
		if _, ok := newest[v.key]; !ok {
			newest[v.key] = v
		}
	}
	return newest
}

// checkSurvivors holds a list recovered after a power cut to the one the
// uninterrupted drain leaves: everything in want is there, in order, and
// whatever else survived is an older version of a key want keeps (an
// unlink the cut came before).
func checkSurvivors(t *testing.T, what string, got, want []version, newest map[string]version) {
	t.Helper()
	i := 0
	for _, v := range got {
		if i < len(want) && v == want[i] {
			i++
			continue
		}
		if nv, ok := newest[v.key]; !ok || v.seq >= nv.seq {
			t.Fatalf("%s: survivor %v is not an older version of a kept key", what, v)
		}
	}
	if i != len(want) {
		t.Fatalf("%s: %v lost", what, want[i])
	}
}

// TestMergeResumeAfterEveryStore cuts the power after each pointer store
// of a whole merge in turn — mark stores, newtable unlinks, oldtable links
// and the splice-driven unlinks of superseded versions, all but the first
// step's taken with the carried finger — recovers the way the engine does
// (re-attach both lists from their heads, read the persisted mark, Resume)
// and checks the result: every key reads its newest version, everything
// the uninterrupted merge keeps is there, and whatever else survived is an
// older version of a key that is (an unlink the cut came before). The
// fourth seed's newtable is a dense block over a sparse oldtable, so its
// runs reach runCap and cuts fall inside long runs.
func TestMergeResumeAfterEveryStore(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var oldVs, newVs []version
		if seed <= 3 {
			keySpace := []int{4, 25, 90}[seed%3]
			oldVs = randomVersions(rnd, 40, keySpace, 1)
			newVs = randomVersions(rnd, 40, keySpace, newSeqBase)
		} else {
			oldVs = versionsOn(rnd, strideIDs(20, 30), 1)
			newVs = versionsOn(rnd, blockIDs(rnd, 20, 36, 4), newSeqBase)
		}

		// build makes the pair afresh (deterministic, so every run sees the
		// same lists, tower heights included) with a mark slot, all metered
		// by meter.
		var space *vaddr.Space
		var old, newer *Table
		var slotRegion *vaddr.Region
		var slot vaddr.Addr
		build := func(meter *cutMeter) {
			space = vaddr.NewSpace()
			old = linkVersions(t, space, meter, 1, oldVs)
			newer = linkVersions(t, space, meter, 2, newVs)
			slotRegion = space.NewRegion(4096, meter)
			slot, _ = slotRegion.Alloc(8)
		}
		// run builds the pair and merges it with the power cut after
		// cutAfter stores; it reports the stores made and whether the cut
		// came.
		var meter *cutMeter
		run := func(cutAfter int) (stores int, cut bool) {
			meter = &cutMeter{left: -1}
			build(meter)
			m := NewMerge(newer, old)
			m.SetPersistSlot(slotRegion, slot)
			meter.writes, meter.left = 0, cutAfter
			defer func() {
				stores, meter.left = meter.writes, -1
				cut = isCut(recover())
			}()
			m.Run()
			return
		}
		// resume recovers the way the engine does — re-attach both lists
		// from their heads, read the persisted mark, Resume — with the
		// power cut again after cutAfter stores.
		resume := func(what string, cutAfter int) (merged *Table, cut bool) {
			mark := vaddr.Addr(slotRegion.Load64(slot))
			oldA := Attach(space, old.list.Head(), 1, old.regions, fp())
			newA := Attach(space, newer.list.Head(), 2, newer.regions, fp())
			m := NewMerge(newA, oldA)
			m.SetPersistSlot(slotRegion, slot)
			meter.left = cutAfter
			defer func() {
				meter.left = -1
				cut = isCut(recover())
			}()
			merged = m.Resume(mark)
			if !newA.List().Empty() || !vaddr.Addr(slotRegion.Load64(slot)).IsNil() {
				t.Fatalf("%s: newtable or mark not cleared", what)
			}
			return merged, false
		}

		// The stores the drain makes, derived from the model of its steps
		// and the pair's tower heights: a run whose tallest node has height
		// H takes 3H + 1 (the mark, H newtable head stores, H stores from
		// its last nodes and H oldtable predecessor stores), a dropped node
		// of height h takes h + 1, an unlinked superseded version h, and
		// the drain's end one clear. Moving every node alone, a migrated
		// node of height h took 3h + 1: that count is the one the cut
		// points had when each store charged the meter itself (dea5655:
		// 239, 245, 210), less the mark slot's clear at the end of each
		// step, which gave way to one clear at the end of the drain.
		build(&cutMeter{left: -1})
		height := map[version]int{}
		for _, l := range []*skiplist.List{old.list, newer.list} {
			for n := l.First(nil); !n.IsNil(); n = l.Next(nil, n) {
				height[nodeVersion(n)] = n.Height()
			}
		}
		steps := expectedSteps(mergedInputs(oldVs, newVs), func(version) bool { return false })
		stores, nodeByNode := 1, 1
		migrated := map[string]bool{}
		for _, st := range steps {
			tallest := 0
			for _, v := range st.nodes {
				tallest = max(tallest, height[v])
				if !st.dropped {
					nodeByNode += 3*height[v] + 1
					migrated[v.key] = true
				}
			}
			if st.dropped {
				stores += tallest + 1
				nodeByNode += tallest + 1
			} else {
				stores += 3*tallest + 1
			}
		}
		for _, v := range oldVs {
			if migrated[v.key] {
				stores += height[v]
				nodeByNode += height[v]
			}
		}
		if seed <= 3 {
			if floor := []int{0, 239, 245, 210}[seed] - len(newVs) + 1; nodeByNode != floor {
				t.Fatalf("seed %d: model has %d stores node by node, %d measured then", seed, nodeByNode, floor)
			}
		} else if longestRun(steps) != runCap {
			t.Fatalf("seed %d: longest run %d, want runCap = %d", seed, longestRun(steps), runCap)
		}

		t.Logf("seed %d: %d stores in %d steps, %d node by node", seed, stores, len(steps), nodeByNode)
		total, cut := run(-1)
		if cut || total != stores {
			t.Fatalf("seed %d: uninterrupted merge made %d stores (cut=%v), model %d", seed, total, cut, stores)
		}
		want := collect(old.NewIterator())
		newest := newestVersions(want)

		check := func(what string, merged *Table) {
			if _, err := merged.List().CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkSurvivors(t, what, collect(merged.NewIterator()), want, newest)
			for k, v := range newest {
				value, seq, kind, ok := merged.GetSafe([]byte(k))
				if !ok || seq != v.seq || kind != v.kind || !bytes.Equal(value, []byte(v.value)) {
					t.Fatalf("%s: Get(%s) = (%q, %d, %d, %v), want %v", what, k, value, seq, kind, ok, v)
				}
				if !merged.MayContain([]byte(k)) {
					t.Fatalf("%s: merged filter misses %s", what, k)
				}
			}
		}

		longest := 0
		for cutAfter := 0; cutAfter < total; cutAfter++ {
			what := fmt.Sprintf("seed %d, power cut after store %d of %d", seed, cutAfter, total)
			if _, cut := run(cutAfter); !cut {
				t.Fatalf("%s: no cut", what)
			}
			if _, k := splitMark(slotRegion.Load64(slot)); k > longest {
				longest = k
			}
			merged, _ := resume(what, -1)
			check(what, merged)
			if seed <= 3 {
				continue
			}
			// A second cut inside the repair of a run: the mark still names
			// it, and Resume must find the same run again.
			for again := 0; ; again++ {
				what := fmt.Sprintf("%s, again after store %d of Resume", what, again)
				run(cutAfter)
				if _, cut := resume(what, again); !cut {
					break
				}
				merged, _ := resume(what, -1)
				check(what, merged)
			}
		}
		if longest != longestRun(steps) {
			t.Fatalf("seed %d: the slot named runs of up to %d nodes, model %d", seed, longest, longestRun(steps))
		}
	}
}

// TestAbsorbReabsorbAfterEveryStore is the absorb's twin of the test
// above: cut the power before each store of a whole lazy copy in turn —
// node fills, links into the repository, the splice-driven unlinks of
// superseded versions and of versions a tombstone deletes — then recover
// the way the engine does (re-attach the repository from its head and the
// table from its own, absorb the table again: its manifest record was
// never written) and check the result. An absorb keeps no mark, so what
// recovery rests on is its idempotence: an entry already in is skipped, a
// tombstone already applied finds nothing left. Every key reads its newest
// version, everything the uninterrupted absorb keeps is there, and
// whatever else survived is an older version of a kept key.
func TestAbsorbReabsorbAfterEveryStore(t *testing.T) {
	policies := []struct {
		name string
		drop func(uint64) bool
	}{
		{"always drop", nil},
		// Below the horizon versions are unlinked and tombstones applied;
		// above it duplicates stay and tombstones land as nodes.
		{"snapshot horizon", func(newerSeq uint64) bool { return newerSeq <= newSeqBase+20 }},
	}
	for _, pol := range policies {
		for seed := int64(1); seed <= 3; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			keySpace := []int{4, 25, 90}[seed%3]
			// Two tables under a never-drop gate leave the repository with
			// retained duplicates and tombstone nodes for the absorb to clear.
			repoVs := [2][]version{randomVersions(rnd, 25, keySpace, 1), randomVersions(rnd, 25, keySpace, 5000)}
			tableVs := randomVersions(rnd, 40, keySpace, newSeqBase)
			policy := AbsorbPolicy{Drop: pol.drop}

			// run builds repository and table afresh (deterministic) and
			// absorbs the table with the power cut after cutAfter stores.
			var space *vaddr.Space
			var repo *Repository
			var table *Table
			run := func(cutAfter int) (stores int, cut bool) {
				space = vaddr.NewSpace()
				meter := &cutMeter{left: -1}
				region := space.NewRegion(1<<20, meter)
				list, err := skiplist.New(region)
				if err != nil {
					t.Fatal(err)
				}
				repo = &Repository{region: region, list: list}
				for i, vs := range repoVs {
					if err := repo.AbsorbWith(linkVersions(t, space, meter, uint64(i+1), vs), AbsorbPolicy{Drop: func(uint64) bool { return false }}); err != nil {
						t.Fatal(err)
					}
				}
				table = linkVersions(t, space, meter, 3, tableVs)
				meter.writes, meter.left = 0, cutAfter
				defer func() {
					stores, meter.left = meter.writes, -1
					if r := recover(); r != nil {
						if _, ok := r.(powerCut); !ok {
							panic(r)
						}
						cut = true
					}
				}()
				if err := repo.AbsorbWith(table, policy); err != nil {
					t.Fatal(err)
				}
				return
			}

			total, cut := run(-1)
			if cut || total == 0 {
				t.Fatalf("%s, seed %d: uninterrupted absorb made %d stores, cut=%v", pol.name, seed, total, cut)
			}
			want := collect(repo.NewIterator())
			newest := newestVersions(want)

			for cutAfter := 0; cutAfter < total; cutAfter++ {
				what := fmt.Sprintf("%s, seed %d, power cut after store %d of %d", pol.name, seed, cutAfter, total)
				if _, cut := run(cutAfter); !cut {
					t.Fatalf("%s: no cut", what)
				}
				dev := nvm.NewDevice(space, nvm.NVMProfile()) // for its space only
				repoA := AttachRepository(dev, repo.region, repo.list.Head())
				tableA := Attach(space, table.list.Head(), 3, table.regions, fp())
				if err := repoA.AbsorbWith(tableA, policy); err != nil {
					t.Fatalf("%s: %v", what, err)
				}

				if n, err := repoA.List().CheckInvariants(); err != nil || int64(n) != repoA.Count() {
					t.Fatalf("%s: %d nodes linked, Count %d: %v", what, n, repoA.Count(), err)
				}
				checkSurvivors(t, what, collect(repoA.NewIterator()), want, newest)
				for k := 0; k < keySpace; k++ {
					key := fmt.Sprintf("key-%04d", k)
					value, seq, kind, ok := repoA.Get([]byte(key))
					v, kept := newest[key]
					if ok != kept || (ok && (seq != v.seq || kind != v.kind || !bytes.Equal(value, []byte(v.value)))) {
						t.Fatalf("%s: Get(%s) = (%q, %d, %d, %v), want %v (kept=%v)", what, key, value, seq, kind, ok, v, kept)
					}
				}
			}
		}
	}
}

// TestMergeResumeFromFinishedMark stops a merge just after the step that
// moved one chosen node — the persisted mark then names a run or a node
// whose step is over — and
// recovers the way the engine does: re-attach both lists and Resume from
// the slot. The range tombstone outlives the crash and no snapshot does,
// so the resumed merge keeps the Dead gate and has no Drop gate. Redoing
// a finished step must leave what an uninterrupted merge under the
// tombstone leaves, (key, seq) for (key, seq). The one exception is the
// node dropped under the tombstone: Resume relinks it, and it is the only
// difference.
func TestMergeResumeFromFinishedMark(t *testing.T) {
	set := func(key string, seq uint64) version {
		return version{key: key, value: fmt.Sprintf("%s@%d", key, seq), seq: seq, kind: keys.KindSet}
	}
	oldVs := []version{set("a", 1), set("b", 2), set("c", 3), set("d", 4), set("e", 5), set("h", 6)}
	newVs := []version{
		set("b", newSeqBase+1), set("b", newSeqBase+2), // b@+2 supersedes b@2, then b@+1 is a dup
		set("d", newSeqBase+3), set("d", newSeqBase+4), // a snapshot below +4 keeps d@+3
		set("f", newSeqBase+5), // under a range tombstone
		set("g", newSeqBase+6),
		set("h", newSeqBase+7), // the last node, superseding h@6
	}
	deadNode := set("f", newSeqBase+5)
	dead := func(key []byte, seq uint64, _ keys.Kind) bool {
		return string(key) == deadNode.key && seq == deadNode.seq
	}

	// pair builds the two tables afresh in a space of their own, metered
	// by a meter that never cuts but fails a walk that does not end.
	pair := func() (*vaddr.Space, *cutMeter, *Table, *Table) {
		space := vaddr.NewSpace()
		meter := &cutMeter{left: -1}
		return space, meter, linkVersions(t, space, meter, 1, oldVs), linkVersions(t, space, meter, 2, newVs)
	}
	_, _, old, newer := pair()
	m := NewMerge(newer, old)
	m.Dead = dead
	want := collect(m.Run().NewIterator())

	snapshot := func(newerSeq uint64) bool { return newerSeq != newSeqBase+4 }
	cases := []struct {
		name     string
		after    version   // the node whose step is the last one run
		in, out  []version // in, and not in, the oldtable after that step
		drop     func(uint64) bool
		relinked bool // after is back after Resume
	}{
		{"migrated, superseded version unlinked", set("b", newSeqBase+2),
			[]version{set("b", newSeqBase+2)}, []version{set("b", 2)}, nil, false},
		{"dropped duplicate", set("b", newSeqBase+1),
			nil, []version{set("b", newSeqBase+1)}, nil, false},
		{"duplicate the snapshot gate retained", set("d", newSeqBase+3),
			[]version{set("d", newSeqBase+4), set("d", newSeqBase+3)}, []version{set("d", 4)}, snapshot, false},
		{"dropped under a range tombstone", deadNode, nil, []version{deadNode}, nil, true},
		{"last node", set("h", newSeqBase+7),
			[]version{set("h", newSeqBase+7)}, []version{set("h", 6)}, nil, false},
	}
	for _, tc := range cases {
		space, meter, old, newer := pair()
		slotRegion := space.NewRegion(4096, meter)
		slot, _ := slotRegion.Alloc(8)
		m := NewMerge(newer, old)
		m.SetPersistSlot(slotRegion, slot)
		m.Drop = tc.drop
		m.Dead = dead
		var d drain
		for stepped := false; !stepped; {
			n := newer.List().First(nil)
			if n.IsNil() {
				t.Fatalf("%s: %v never drained", tc.name, tc.after)
			}
			before := collect(newer.NewIterator())
			m.step(&d)
			moved := before[:len(before)-len(collect(newer.NewIterator()))]
			for _, v := range moved {
				stepped = stepped || v == tc.after
			}
			if a, k := splitMark(slotRegion.Load64(slot)); stepped && (a != n.Addr() || k != len(moved)) {
				t.Fatalf("%s: slot names %d nodes at %v after the step of %v at %v", tc.name, k, a, moved, n.Addr())
			}
		}
		if tc.after == newVs[len(newVs)-1] && !newer.List().Empty() {
			t.Fatalf("%s: newtable not drained", tc.name)
		}
		// What the step did, so the case is the one it is named for.
		before := map[version]bool{}
		for _, v := range collect(old.NewIterator()) {
			before[v] = true
		}
		for _, v := range tc.in {
			if !before[v] {
				t.Fatalf("%s: %v not in the oldtable after the step", tc.name, v)
			}
		}
		for _, v := range tc.out {
			if before[v] {
				t.Fatalf("%s: %v still in the oldtable after the step", tc.name, v)
			}
		}

		oldA := Attach(space, old.list.Head(), 1, old.regions, fp())
		newA := Attach(space, newer.list.Head(), 2, newer.regions, fp())
		r := NewMerge(newA, oldA)
		r.SetPersistSlot(slotRegion, slot)
		r.Dead = dead
		merged := r.Resume(vaddr.Addr(slotRegion.Load64(slot)))

		if _, err := merged.List().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !newA.List().Empty() || !vaddr.Addr(slotRegion.Load64(slot)).IsNil() {
			t.Fatalf("%s: newtable or mark not cleared", tc.name)
		}
		got := collect(merged.NewIterator())
		if tc.relinked {
			rest := got[:0:0]
			for _, v := range got {
				if v != tc.after {
					rest = append(rest, v)
				}
			}
			if len(rest) != len(got)-1 {
				t.Fatalf("%s: %v relinked %d times, want once", tc.name, tc.after, len(got)-len(rest))
			}
			got = rest
		}
		diffVersions(t, tc.name, got, want)
	}
}
