package pmtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// A zero-copy merge moves consecutive newtable nodes that land in one
// oldtable gap as one run. These tests hold the lists a run-splicing merge
// leaves, link for link, to the ones moving node by node leaves, and count
// its mark stores against a model of where runs begin and end.

// versionsOn makes one version per entry of ids, on key ids[i] at sequence
// seqBase+i, with randomVersions' mix of sets and tombstones.
func versionsOn(rnd *rand.Rand, ids []int, seqBase uint64) []version {
	vs := make([]version, 0, len(ids))
	for i, id := range ids {
		v := version{key: fmt.Sprintf("key-%04d", id), seq: seqBase + uint64(i), kind: keys.KindSet}
		if rnd.Intn(8) == 0 {
			v.kind = keys.KindDelete
		} else {
			v.value = fmt.Sprintf("%s@%d", v.key, v.seq)
		}
		vs = append(vs, v)
	}
	return vs
}

// blockIDs is n consecutive key ids from lo, then extra ids drawn from the
// same block: a dense newtable block, with duplicates, over the few
// oldtable gaps a sparse oldtable leaves there.
func blockIDs(rnd *rand.Rand, lo, n, extra int) []int {
	ids := make([]int, 0, n+extra)
	for i := 0; i < n; i++ {
		ids = append(ids, lo+i)
	}
	for i := 0; i < extra; i++ {
		ids = append(ids, lo+rnd.Intn(n))
	}
	return ids
}

// strideIDs is n key ids 0, stride, 2·stride, …: a sparse oldtable.
func strideIDs(n, stride int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * stride
	}
	return ids
}

// mergedInputs is the pair's versions in internal order: key ascending,
// sequence descending.
func mergedInputs(oldVs, newVs []version) []version {
	vs := append(append([]version(nil), oldVs...), newVs...)
	sort.Slice(vs, func(i, j int) bool {
		return keys.Compare([]byte(vs[i].key), vs[i].seq, []byte(vs[j].key), vs[j].seq) < 0
	})
	return vs
}

// mergeStep is one step of a drain as the model sees it: a run of newtable
// versions migrated in one window, or one version dropped.
type mergeStep struct {
	nodes   []version
	dropped bool
}

// expectedSteps models a drain of the merged inputs under the always-drop
// gate. A version superseded by the one migrated before it, or dead, is
// dropped alone. Otherwise a run starts there and takes the versions after
// it while each is a newtable version (no oldtable version orders between:
// with every superseded version unlinked behind its migrated key, the next
// oldtable version in the inputs is the run's oldtable successor), is not
// a version of the key before it, is not dead, and the run is shorter than
// runCap.
func expectedSteps(inputs []version, dead func(version) bool) []mergeStep {
	var steps []mergeStep
	lastKey, lastValid := "", false
	for i := 0; i < len(inputs); i++ {
		v := inputs[i]
		if v.seq < newSeqBase {
			continue
		}
		if (lastValid && v.key == lastKey) || dead(v) {
			steps = append(steps, mergeStep{nodes: []version{v}, dropped: true})
			continue
		}
		run := []version{v}
		for i+1 < len(inputs) && len(run) < runCap {
			next := inputs[i+1]
			if next.seq < newSeqBase || next.key == run[len(run)-1].key || dead(next) {
				break
			}
			run = append(run, next)
			i++
		}
		steps = append(steps, mergeStep{nodes: run})
		lastKey, lastValid = run[len(run)-1].key, true
	}
	return steps
}

// longestRun is the length of the longest run among steps.
func longestRun(steps []mergeStep) int {
	longest := 0
	for _, st := range steps {
		if !st.dropped {
			longest = max(longest, len(st.nodes))
		}
	}
	return longest
}

func nodeVersion(n skiplist.Node) version {
	return version{string(n.Key()), string(n.Value()), n.Seq(), n.Kind()}
}

// towers renders a list link by link: for the head and every node on level
// 0, in order, the node and what each level of its tower points at.
func towers(l *skiplist.List) []string {
	var out []string
	for n := l.Node(l.Head()); !n.IsNil(); n = l.Next(nil, n) {
		var b strings.Builder
		if n.Addr() == l.Head() {
			b.WriteString("head")
		} else {
			b.WriteString(nodeVersion(n).String())
		}
		for level := 0; level < n.Height(); level++ {
			b.WriteString(" →")
			if a := n.NextAddr(level); a.IsNil() {
				b.WriteString(" nil")
			} else {
				fmt.Fprintf(&b, " %v", nodeVersion(l.Node(a)))
			}
		}
		out = append(out, b.String())
	}
	return out
}

// mergeNodeByNode is the reference drain: every newtable node leaves with
// RemoveFirst and, unless the gates drop it, enters the oldtable with
// InsertNode, followed by RemoveAfter of every superseded version the
// gate lets go — a search per node, one node at a time.
func mergeNodeByNode(newer, old *Table, drop func(uint64) bool, dead func(version) bool) {
	var lastKey []byte
	var lastSeq uint64
	lastValid := false
	for {
		n := newer.list.RemoveFirst(nil)
		if n.IsNil() {
			return
		}
		if (lastValid && bytes.Equal(n.Key(), lastKey) && drop(lastSeq)) || dead(nodeVersion(n)) {
			continue
		}
		old.list.InsertNode(n)
		if drop(n.Seq()) {
			for !old.list.RemoveAfter(n).IsNil() {
			}
		}
		lastKey, lastSeq, lastValid = n.Key(), n.Seq(), true
	}
}

// TestMergeRunsMatchNodeByNode merges random pairs twice, from identical
// lists with identical tower heights: with the merge, which moves runs,
// and with the node-by-node reference. The oldtables must come out equal
// link for link, at every level. The version sets repeat keys inside the
// newtable, drop some under a range tombstone, retain duplicates behind a
// snapshot horizon, and put a dense newtable block over a sparse stretch
// of the oldtable, where runs reach runCap.
func TestMergeRunsMatchNodeByNode(t *testing.T) {
	longest := 0
	for seed := int64(1); seed <= 24; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		keySpace := []int{6, 40, 300, 2000}[seed%4]
		var oldVs []version
		if seed%2 == 0 {
			oldVs = versionsOn(rnd, strideIDs(1+rnd.Intn(100), 1+rnd.Intn(40)), 1)
		} else {
			oldVs = randomVersions(rnd, 1+rnd.Intn(200), keySpace, 1)
		}
		// Random keys, a block inside the key space and one past it, in the
		// oldtable's last gap: at least 40 keys that at most three
		// duplicates split, so one stretch of distinct keys is a full run.
		ids := blockIDs(rnd, rnd.Intn(keySpace), rnd.Intn(60), rnd.Intn(10))
		ids = append(ids, blockIDs(rnd, keySpace+100, 40+rnd.Intn(40), rnd.Intn(4))...)
		for i := rnd.Intn(200); i > 0; i-- {
			ids = append(ids, rnd.Intn(keySpace))
		}
		newVs := versionsOn(rnd, ids, newSeqBase)
		horizon := newSeqBase + uint64(rnd.Intn(len(newVs)+1))
		drop := []func(uint64) bool{
			func(uint64) bool { return true },
			func(newerSeq uint64) bool { return newerSeq <= horizon },
			func(uint64) bool { return false },
		}[seed%3]
		deadMod := uint64([]int{0, 5, 11}[(seed/3)%3])
		dead := func(v version) bool { return deadMod != 0 && v.seq%deadMod == 0 }

		pair := func() (*Table, *Table) {
			space := vaddr.NewSpace()
			dev := nvm.NewDevice(space, nvm.NVMProfile())
			return linkVersions(t, space, dev, 1, oldVs), linkVersions(t, space, dev, 2, newVs)
		}
		old, newer := pair()
		refOld, refNew := pair()
		what := fmt.Sprintf("seed %d", seed)
		diffLines(t, what+", newtables before the merge", towers(newer.list), towers(refNew.list))

		m := NewMerge(newer, old)
		m.Drop = drop
		m.Dead = func(key []byte, seq uint64, kind keys.Kind) bool {
			return dead(version{key: string(key), seq: seq, kind: kind})
		}
		merged := m.Run()
		mergeNodeByNode(refNew, refOld, drop, dead)

		diffLines(t, what, towers(merged.List()), towers(refOld.list))
		if merged.Count() != refOld.list.Count() || !newer.List().Empty() {
			t.Fatalf("%s: Count %d, reference %d; newtable drained: %v", what, merged.Count(), refOld.list.Count(), newer.List().Empty())
		}
		if _, err := merged.List().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if seed%3 != 0 || deadMod != 0 {
			continue
		}
		// Under the always-drop gate the model places the runs too.
		steps := expectedSteps(mergedInputs(oldVs, newVs), dead)
		runs := int64(0)
		for _, st := range steps {
			if !st.dropped {
				runs++
			}
		}
		if m.runs != runs {
			t.Fatalf("%s: %d runs, model %d", what, m.runs, runs)
		}
		longest = max(longest, longestRun(steps))
	}
	if longest != runCap {
		t.Fatalf("longest run %d, want runs of runCap = %d among the seeds", longest, runCap)
	}
}

func diffLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("%s: line %d missing, want %s", what, i, want[i])
		case i >= len(want):
			t.Fatalf("%s: extra line %d %s", what, i, got[i])
		case got[i] != want[i]:
			t.Fatalf("%s: line %d is\n\t%s\nwant\n\t%s", what, i, got[i], want[i])
		}
	}
}

// TestMergePersistsMarkOncePerRun puts the mark slot on a device of its
// own and counts its stores: one per run migrated and one per newtable
// node dropped — as a duplicate or under a range tombstone — as the model
// of the drain places them, and one clear when the drain ends, which
// leaves the slot nil.
func TestMergePersistsMarkOncePerRun(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	dram, nv := devices()
	oldVs := versionsOn(rnd, strideIDs(40, 25), 1)
	newVs := versionsOn(rnd, append(blockIDs(rnd, 100, 50, 6), blockIDs(rnd, 0, 400, 0)[rnd.Intn(300):]...), newSeqBase)
	old := flushVersions(t, dram, nv, 1, oldVs)
	newer := flushVersions(t, dram, nv, 2, newVs)
	slotDev := nvm.NewDevice(nv.Space(), nvm.NVMProfile())
	slotRegion := slotDev.NewRegion(4096)
	slot, _ := slotRegion.Alloc(8)
	m := NewMerge(newer, old)
	m.SetPersistSlot(slotRegion, slot)
	dead := func(v version) bool { return v.seq%13 == 0 }
	m.Dead = func(_ []byte, seq uint64, _ keys.Kind) bool { return dead(version{seq: seq}) }
	dropped := 0
	m.OnDrop = func([]byte, keys.Kind) { dropped++ }
	m.Run()

	steps := expectedSteps(mergedInputs(oldVs, newVs), dead)
	runs, moved, drops := int64(0), int64(0), 0
	migrated := map[string]bool{}
	for _, st := range steps {
		if st.dropped {
			drops++
			continue
		}
		runs++
		moved += int64(len(st.nodes))
		for _, v := range st.nodes {
			migrated[v.key] = true
		}
	}
	unlinked := 0
	for _, v := range oldVs {
		if migrated[v.key] {
			unlinked++
		}
	}
	if drops == 0 || longestRun(steps) != runCap {
		t.Fatalf("%d drops, longest run %d: want drops and runs of runCap", drops, longestRun(steps))
	}
	if m.Moved() != moved || m.runs != runs {
		t.Fatalf("%d nodes moved in %d runs, model %d in %d", m.Moved(), m.runs, moved, runs)
	}
	if dropped != drops+unlinked {
		t.Fatalf("%d drops observed, model drops %d newtable nodes and unlinks %d oldtable versions", dropped, drops, unlinked)
	}
	want := int64(len(steps) + 1)
	if c := slotDev.Counters(); c.Writes != want || c.BytesWritten != 8*want {
		t.Fatalf("mark slot took %d stores (%d B) for %d runs and %d drops, want %d", c.Writes, c.BytesWritten, runs, drops, want)
	}
	if a := vaddr.Addr(slotRegion.Load64(slot)); !a.IsNil() {
		t.Fatalf("persisted mark = %v after the drain", a)
	}
}

// probeMeter runs probe before every store charged to it, asking every
// tally for the per-access seam as cutMeter does.
type probeMeter struct{ probe func() }

func (p *probeMeter) ChargeEachAccess() {}
func (p *probeMeter) OnRead(int)        {}
func (p *probeMeter) OnReads(int, int)  {}
func (p *probeMeter) OnWrites(int, int) {}
func (p *probeMeter) OnWrite(int)       { p.probe() }

// TestMergeProbesAtEveryStore holds the read protocol's two halves. Every
// store the merge makes falls inside a seqlock window (pos odd), so a
// reader's probe that overlaps one fails validation and retries. Between
// steps the lists alone answer: the point probe (Merge.getOnce) and the
// scan's successor probe (Merge.succOnce) read every key's newest version
// from the two lists after each step, runs of several nodes included.
func TestMergeProbesAtEveryStore(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	oldVs := versionsOn(rnd, strideIDs(12, 30), 1)
	newVs := versionsOn(rnd, blockIDs(rnd, 20, 36, 4), newSeqBase)
	newest := newestVersions(mergedInputs(oldVs, newVs))
	meter := &probeMeter{probe: func() {}}
	space := vaddr.NewSpace()
	old := linkVersions(t, space, meter, 1, oldVs)
	newer := linkVersions(t, space, meter, 2, newVs)
	m := NewMerge(newer, old)

	stores := 0
	meter.probe = func() {
		if stores++; m.pos.Load()&1 == 0 {
			t.Fatalf("store %d outside a seqlock window (pos %d)", stores, m.pos.Load())
		}
	}
	d := &drain{}
	for step := 0; ; step++ {
		for k, v := range newest {
			what := fmt.Sprintf("after step %d", step)
			value, seq, kind, ok := m.getOnce([]byte(k), keys.MaxSeq)
			if !ok || seq != v.seq || kind != v.kind || string(value) != v.value {
				t.Fatalf("%s: get(%s) = (%q, %d, %d, %v), want %v", what, k, value, seq, kind, ok, v)
			}
			if n := m.succOnce([]byte(k), keys.MaxSeq); n.IsNil() || nodeVersion(n) != v {
				t.Fatalf("%s: successor of (%s, MaxSeq) is %v, want %v", what, k, n.Addr(), v)
			}
		}
		if !m.step(d) {
			break
		}
	}
	if stores == 0 || m.runs >= m.moved {
		t.Fatalf("%d stores moved %d nodes in %d runs, want runs of several nodes", stores, m.moved, m.runs)
	}
}
