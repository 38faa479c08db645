package pmtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"miodb/internal/bloom"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

func devices() (dram, nv *nvm.Device) {
	space := vaddr.NewSpace()
	return nvm.NewDevice(space, nvm.DRAMProfile()), nvm.NewDevice(space, nvm.NVMProfile())
}

func fp() FilterParams { return FilterParams{ExpectedKeys: 4096, BitsPerKey: 16} }

// buildTable creates a PMTable via the real path: memtable → one-piece
// flush. Sequence numbers are [seqBase, seqBase+n).
func buildTable(t testing.TB, dram, nv *nvm.Device, id uint64, seqBase uint64, kvs map[string]string) *Table {
	t.Helper()
	mt, err := memtable.New(dram, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]string, 0, len(kvs))
	for k := range kvs {
		ks = append(ks, k)
	}
	// Insert in random-ish deterministic order.
	rnd := rand.New(rand.NewSource(int64(id)))
	rnd.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	seq := seqBase
	var minSeq, maxSeq uint64
	minSeq = seq
	for _, k := range ks {
		kind := keys.KindSet
		v := kvs[k]
		if v == "<del>" {
			kind = keys.KindDelete
			v = ""
		}
		if err := mt.Add([]byte(k), []byte(v), seq, kind); err != nil {
			t.Fatal(err)
		}
		maxSeq = seq
		seq++
	}
	tbl := Flush(nv, mt, id, minSeq, maxSeq, fp())
	mt.Release()
	return tbl
}

func TestFlushProducesEquivalentTable(t *testing.T) {
	dram, nv := devices()
	kvs := map[string]string{}
	for i := 0; i < 300; i++ {
		kvs[fmt.Sprintf("key-%04d", i)] = fmt.Sprintf("val-%04d", i)
	}
	tbl := buildTable(t, dram, nv, 1, 1, kvs)
	if tbl.Count() != int64(len(kvs)) {
		t.Fatalf("Count = %d, want %d", tbl.Count(), len(kvs))
	}
	for k, v := range kvs {
		got, _, kind, ok := tbl.GetSafe([]byte(k))
		if !ok || string(got) != v || kind != keys.KindSet {
			t.Fatalf("Get(%s) = %q ok=%v", k, got, ok)
		}
		if !tbl.MayContain([]byte(k)) {
			t.Fatalf("bloom false negative for %s", k)
		}
	}
	if _, _, _, ok := tbl.GetSafe([]byte("absent")); ok {
		t.Error("Get(absent) found something")
	}
	if n, err := tbl.List().CheckInvariants(); err != nil || n != len(kvs) {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
	// The flushed table must live entirely on the NVM device's region.
	if len(tbl.Regions()) != 1 {
		t.Fatalf("regions = %d", len(tbl.Regions()))
	}
}

func TestFlushChargesOneBulkWrite(t *testing.T) {
	dram, nv := devices()
	kvs := map[string]string{}
	for i := 0; i < 100; i++ {
		kvs[fmt.Sprintf("key-%04d", i)] = "0123456789"
	}
	before := nv.Counters()
	tbl := buildTable(t, dram, nv, 1, 1, kvs)
	after := nv.Counters()
	written := after.BytesWritten - before.BytesWritten
	// One-piece flush ≈ arena extent + pointer swizzling; far below the
	// 2× that per-entry copy + re-insert would cost, and at least the
	// user payload.
	if written < tbl.UserBytes() {
		t.Errorf("flush wrote %d bytes < user bytes %d", written, tbl.UserBytes())
	}
	if written > 4*tbl.UserBytes()+1<<16 {
		t.Errorf("flush wrote %d bytes, suspiciously more than arena size (user=%d)", written, tbl.UserBytes())
	}
}

// TestFlushAdoptsMemtableFilter: a filtered memtable's one-piece flush
// hands its filter to the table as is and reads no key to build one; an
// unfiltered memtable's flush builds the filter with one walk, which
// costs exactly the walk's reads (a pointer per node and the head's, a key
// per node) and nothing else. The ablated Build adopts the filter too.
func TestFlushAdoptsMemtableFilter(t *testing.T) {
	const n = 150
	fill := func(mt *memtable.MemTable) {
		for i := 0; i < n; i++ {
			kind := keys.KindSet
			if i%4 == 0 {
				kind = keys.KindDelete
			}
			if err := mt.Add([]byte(fmt.Sprintf("key-%04d", i*37%n)), []byte("0123456789"), uint64(i+1), kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func(filtered bool) (*memtable.MemTable, *Table, nvm.Counters) {
		dram, nv := devices()
		var f *bloom.Filter
		if filtered {
			f = fp().NewFilter()
		}
		mt, err := memtable.NewFiltered(dram, 1<<20, 1<<20, f, vaddr.Spare{})
		if err != nil {
			t.Fatal(err)
		}
		fill(mt)
		before := nv.Counters()
		tbl := Flush(nv, mt, 1, 1, n, fp())
		after := nv.Counters()
		return mt, tbl, nvm.Counters{
			Reads: after.Reads - before.Reads, BytesRead: after.BytesRead - before.BytesRead,
			Writes: after.Writes - before.Writes, BytesWritten: after.BytesWritten - before.BytesWritten,
		}
	}
	filteredMT, tf, cf := flush(true)
	_, tu, cu := flush(false)
	if tf.Filter() == nil || tf.Filter() != filteredMT.Filter() {
		t.Fatalf("flush of a filtered memtable has filter %p, want the memtable's %p", tf.Filter(), filteredMT.Filter())
	}
	if tu.Filter() == nil {
		t.Fatal("flush of an unfiltered memtable built no filter")
	}
	for _, tbl := range []*Table{tf, tu} {
		if got := tbl.Filter().Keys(); got != n {
			t.Fatalf("filter holds %d keys, want %d", got, n)
		}
		for i := 0; i < n; i++ {
			if k := []byte(fmt.Sprintf("key-%04d", i)); !tbl.MayContain(k) {
				t.Fatalf("filter misses %s", k)
			}
		}
	}
	walkReads, walkBytes := int64(2*n+1), int64(8*(n+1)+n*len("key-0000"))
	if cu.Reads-cf.Reads != walkReads || cu.BytesRead-cf.BytesRead != walkBytes {
		t.Fatalf("filtered flush read %d times (%d B), unfiltered %d (%d B): the difference should be the walk's %d (%d B)",
			cf.Reads, cf.BytesRead, cu.Reads, cu.BytesRead, walkReads, walkBytes)
	}
	if cf.Writes != cu.Writes || cf.BytesWritten != cu.BytesWritten {
		t.Fatalf("filtered flush wrote %+v, unfiltered %+v", cf, cu)
	}

	_, nv := devices()
	built, err := Build(nv, 1<<20, filteredMT.NewIterator(), 2, fp(), filteredMT.Filter())
	if err != nil {
		t.Fatal(err)
	}
	if built.Filter() != filteredMT.Filter() {
		t.Fatal("Build did not adopt the filter it was given")
	}
}

func TestZeroCopyMergeDistinctKeys(t *testing.T) {
	dram, nv := devices()
	// 1 KiB values: the zero-copy property (pointer-only traffic ≪
	// payload) is only observable with non-trivial values.
	pad := string(bytes.Repeat([]byte("x"), 1024))
	old := buildTable(t, dram, nv, 1, 1, map[string]string{"a": "1" + pad, "c": "3" + pad, "e": "5" + pad})
	newer := buildTable(t, dram, nv, 2, 100, map[string]string{"b": "2" + pad, "d": "4" + pad, "f": "6" + pad})

	written := nv.Counters().BytesWritten
	merged := NewMerge(newer, old).Run()
	mergeTraffic := nv.Counters().BytesWritten - written

	if merged.Count() != 6 {
		t.Fatalf("merged count = %d", merged.Count())
	}
	for _, kv := range []struct{ k, v string }{
		{"a", "1" + pad}, {"b", "2" + pad}, {"c", "3" + pad},
		{"d", "4" + pad}, {"e", "5" + pad}, {"f", "6" + pad},
	} {
		got, _, _, ok := merged.GetSafe([]byte(kv.k))
		if !ok || string(got) != kv.v {
			t.Fatalf("merged.GetSafe(%s) = %q ok=%v", kv.k, got, ok)
		}
		if !merged.MayContain([]byte(kv.k)) {
			t.Fatalf("merged bloom lost %s", kv.k)
		}
	}
	if _, err := merged.List().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Zero copy: traffic is pointers only — strictly less than the
	// payload that a copying merge would have moved.
	if user := merged.UserBytes(); mergeTraffic >= user {
		t.Errorf("zero-copy merge wrote %d bytes ≥ user payload %d", mergeTraffic, user)
	}
	if len(merged.Regions()) != 2 {
		t.Errorf("merged table should own both arenas, has %d", len(merged.Regions()))
	}
}

func TestZeroCopyMergeDeduplicates(t *testing.T) {
	dram, nv := devices()
	old := buildTable(t, dram, nv, 1, 1, map[string]string{
		"a": "old-a", "b": "old-b", "c": "old-c", "z": "old-z",
	})
	newer := buildTable(t, dram, nv, 2, 100, map[string]string{
		"a": "new-a", "c": "new-c", "m": "new-m",
	})
	merged := NewMerge(newer, old).Run()
	want := map[string]string{
		"a": "new-a", "b": "old-b", "c": "new-c", "m": "new-m", "z": "old-z",
	}
	if merged.Count() != int64(len(want)) {
		t.Fatalf("merged count = %d, want %d", merged.Count(), len(want))
	}
	for k, v := range want {
		got, _, _, ok := merged.GetSafe([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("merged.GetSafe(%s) = %q ok=%v, want %q", k, got, ok, v)
		}
	}
	if merged.Garbage() == 0 {
		t.Error("dedup produced no garbage accounting")
	}
	if _, err := merged.List().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCopyMergeMultiVersionNewtable(t *testing.T) {
	// A newtable that itself carries several versions of one key (an L0
	// table flushed from a memtable with repeated updates).
	dram, nv := devices()
	mt, _ := memtable.New(dram, 1<<30, 1<<20)
	for i := 1; i <= 5; i++ {
		mt.Add([]byte("k"), []byte(fmt.Sprintf("v%d", i)), uint64(100+i), keys.KindSet)
	}
	mt.Add([]byte("q"), []byte("qv"), 110, keys.KindSet)
	newer := Flush(nv, mt, 2, 101, 110, fp())
	old := buildTable(t, dram, nv, 1, 1, map[string]string{"k": "v0", "x": "xv"})

	merged := NewMerge(newer, old).Run()
	got, seq, _, ok := merged.GetSafe([]byte("k"))
	if !ok || string(got) != "v5" || seq != 105 {
		t.Fatalf("merged.GetSafe(k) = %q seq=%d", got, seq)
	}
	// All older versions must be logically gone.
	if merged.Count() != 3 { // k, q, x
		t.Fatalf("merged count = %d, want 3", merged.Count())
	}
	if _, err := merged.List().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeChainAcrossLevels(t *testing.T) {
	// Simulate the elastic buffer: repeatedly merge pairs as the level
	// compactors would, and verify the final huge table.
	dram, nv := devices()
	golden := map[string]string{}
	var tables []*Table
	seq := uint64(1)
	for ti := 0; ti < 8; ti++ {
		kvs := map[string]string{}
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key-%04d", (ti*37+i*13)%400)
			v := fmt.Sprintf("val-%d-%d", ti, i)
			kvs[k] = v
		}
		tbl := buildTable(t, dram, nv, uint64(ti+1), seq, kvs)
		seq += uint64(len(kvs)) + 10
		for k, v := range kvs {
			golden[k] = v // later tables win
		}
		tables = append(tables, tbl)
	}
	// Binary-tree merge, always newer into older.
	for len(tables) > 1 {
		var next []*Table
		for i := 0; i+1 < len(tables); i += 2 {
			next = append(next, NewMerge(tables[i+1], tables[i]).Run())
		}
		if len(tables)%2 == 1 {
			next = append(next, tables[len(tables)-1])
		}
		tables = next
	}
	final := tables[0]
	if final.Count() != int64(len(golden)) {
		t.Fatalf("final count = %d, want %d", final.Count(), len(golden))
	}
	for k, v := range golden {
		got, _, _, ok := final.GetSafe([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("final.GetSafe(%s) = %q ok=%v, want %q", k, got, ok, v)
		}
	}
	if _, err := final.List().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(final.Regions()) != 8 {
		t.Errorf("final table should own 8 arenas, has %d", len(final.Regions()))
	}
}

func TestConcurrentReadsDuringMerge(t *testing.T) {
	dram, nv := devices()
	oldKVs := map[string]string{}
	newKVs := map[string]string{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key-%05d", i)
		oldKVs[k] = "old-" + k
		if i%2 == 0 {
			newKVs[k] = "new-" + k
		}
	}
	for i := 400; i < 600; i++ {
		newKVs[fmt.Sprintf("key-%05d", i)] = "fresh"
	}
	old := buildTable(t, dram, nv, 1, 1, oldKVs)
	newer := buildTable(t, dram, nv, 2, 10000, newKVs)
	m := NewMerge(newer, old)

	expect := map[string]string{}
	for k, v := range oldKVs {
		expect[k] = v
	}
	for k, v := range newKVs {
		expect[k] = v
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rnd.Intn(600)
				k := fmt.Sprintf("key-%05d", i)
				v, _, _, ok := m.Get([]byte(k), keys.MaxSeq)
				if !ok {
					select {
					case errCh <- fmt.Errorf("reader missed %s during merge", k):
					default:
					}
					return
				}
				if string(v) != expect[k] {
					select {
					case errCh <- fmt.Errorf("reader got %q for %s, want %q", v, k, expect[k]):
					default:
					}
					return
				}
			}
		}(g)
	}
	merged := m.Run()
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if merged.Count() != int64(len(expect)) {
		t.Fatalf("merged count = %d, want %d", merged.Count(), len(expect))
	}
	if _, err := merged.List().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadsDuringRunMerge merges pairs whose newtable keys all
// fall into a few oldtable gaps, so that nearly every step moves a run of
// runCap nodes, under readers: Merge.Get unbounded and bounded at the
// newest sequence, and SafeIterator scans must see every key, a run's interior included, at its
// newest version. Some newtable keys carry an older version too (dropped
// as a duplicate), and each gap's lower oldtable key a newtable version
// (the oldtable version is unlinked behind it).
func TestConcurrentReadsDuringRunMerge(t *testing.T) {
	const gaps, width = 4, 50 // oldtable keys every 100; newtable keys fill 50 of each gap
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	set := func(k string, seq uint64, tag string) version {
		return version{key: k, value: tag + k, seq: seq, kind: keys.KindSet}
	}
	var oldVs, newVs []version
	for g := 0; g <= gaps; g++ {
		oldVs = append(oldVs, set(key(g*100), uint64(g+1), "old-"))
	}
	for g := 0; g < gaps; g++ {
		for i := 0; i <= width; i++ {
			k := key(g*100 + i)
			if i%7 == 3 {
				newVs = append(newVs, set(k, newSeqBase+uint64(len(newVs)), "stale-"))
			}
			newVs = append(newVs, set(k, newSeqBase+uint64(len(newVs)), "new-"))
		}
	}
	newest := map[string]version{}
	for _, v := range append(append([]version(nil), oldVs...), newVs...) {
		if v.seq > newest[v.key].seq {
			newest[v.key] = v
		}
	}
	sorted := make([]string, 0, len(newest))
	for k := range newest {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	maxSeq := newVs[len(newVs)-1].seq

	for round := 0; round < 30; round++ {
		dram, nv := devices()
		old := flushVersions(t, dram, nv, 1, oldVs)
		newer := flushVersions(t, dram, nv, 2, newVs)
		m := NewMerge(newer, old)

		var wg sync.WaitGroup
		errCh := make(chan error, 4)
		fail := func(err error) {
			select {
			case errCh <- err:
			default:
			}
		}
		stop := make(chan struct{})
		stopped := func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		check := func(what, k string, value []byte, seq uint64, ok bool) bool {
			if v := newest[k]; !ok || seq != v.seq || string(value) != v.value {
				fail(fmt.Errorf("round %d: %s(%s) = (%q, %d, %v), want (%q, %d)", round, what, k, value, seq, ok, v.value, v.seq))
				return false
			}
			return true
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(round*3 + g)))
				for !stopped() {
					i := rnd.Intn(len(sorted))
					k := sorted[i]
					switch g {
					case 0:
						v, seq, _, ok := m.Get([]byte(k), keys.MaxSeq)
						if !check("Get", k, v, seq, ok) {
							return
						}
					case 1:
						v, seq, _, ok := m.Get([]byte(k), maxSeq)
						if !check("bounded Get", k, v, seq, ok) {
							return
						}
					default:
						// A scan takes each key's first version: the newest,
						// and the keys in order, none skipped.
						it := m.NewSafeIterator()
						last, end := "", min(i+30, len(sorted))
						for it.Seek([]byte(k)); it.Valid() && i < end; it.Next() {
							if string(it.Key()) == last {
								continue
							}
							last = string(it.Key())
							if last != sorted[i] {
								fail(fmt.Errorf("round %d: scan from %s reached %s, want %s", round, k, last, sorted[i]))
								return
							}
							if !check("scan", last, it.Value(), it.Seq(), true) {
								return
							}
							i++
						}
					}
				}
			}(g)
		}
		merged := m.Run()
		close(stop)
		wg.Wait()
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
		if merged.Count() != int64(len(newest)) || m.runs*2 > int64(len(newVs)) {
			t.Fatalf("round %d: merged count %d, want %d; %d runs for %d nodes", round, merged.Count(), len(newest), m.runs, len(newVs))
		}
	}
}

func TestMergeResumeAfterCrash(t *testing.T) {
	// Interrupt a merge at every partial-migration state Resume must
	// repair, then verify the resumed merge converges to the right table.
	type crashPoint int
	const (
		afterMark crashPoint = iota
		afterRemove
		afterInsert
	)
	set := func(key, value string, seq uint64) version {
		return version{key: key, value: value, seq: seq, kind: keys.KindSet}
	}
	for _, cp := range []crashPoint{afterMark, afterRemove, afterInsert} {
		// A meter that fails a walk that does not end: a repair that
		// links a cycle fails at once.
		space, meter := vaddr.NewSpace(), &cutMeter{left: -1}
		old := linkVersions(t, space, meter, 1, []version{set("a", "old-a", 1), set("b", "old-b", 2), set("d", "old-d", 3)})
		newer := linkVersions(t, space, meter, 2, []version{set("b", "new-b", 100), set("c", "new-c", 101)})

		// Manually perform the first migration up to the crash point,
		// mimicking Merge.step on the first node of the newtable ("b").
		n := newer.List().First(nil)
		markAddr := n.Addr()
		if cp >= afterRemove {
			newer.List().RemoveFirst(nil)
		}
		if cp >= afterInsert {
			old.List().InsertNode(n)
			// crash before duplicate unlink and mark clear
		}

		m := NewMerge(newer, old)
		merged := m.Resume(markAddr)

		if _, err := merged.List().CheckInvariants(); err != nil {
			t.Fatalf("cp=%d: %v", cp, err)
		}
		want := map[string]string{"a": "old-a", "b": "new-b", "c": "new-c", "d": "old-d"}
		if merged.Count() != int64(len(want)) {
			t.Fatalf("cp=%d: merged count = %d, want %d", cp, merged.Count(), len(want))
		}
		for k, v := range want {
			got, _, _, ok := merged.GetSafe([]byte(k))
			if !ok || string(got) != v {
				t.Fatalf("cp=%d: Get(%s) = %q ok=%v, want %q", cp, k, got, ok, v)
			}
		}
	}
}

func TestMergePersistedMarkSlot(t *testing.T) {
	dram, nv := devices()
	old := buildTable(t, dram, nv, 1, 1, map[string]string{"a": "1"})
	newer := buildTable(t, dram, nv, 2, 100, map[string]string{"b": "2"})
	slotRegion := nv.NewRegion(4096)
	slot, _ := slotRegion.Alloc(8)
	m := NewMerge(newer, old)
	m.SetPersistSlot(slotRegion, slot)
	m.Run()
	// After a clean merge the persisted mark must be nil.
	if a := vaddr.Addr(slotRegion.Load64(slot)); !a.IsNil() {
		t.Errorf("persisted mark = %v after clean merge", a)
	}
}

func TestRepositoryAbsorb(t *testing.T) {
	dram, nv := devices()
	repo, err := NewRepository(nv, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	seq := uint64(1)
	for round := 0; round < 5; round++ {
		kvs := map[string]string{}
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("key-%04d", (round*29+i*7)%300)
			v := fmt.Sprintf("val-%d-%d", round, i)
			if (round+i)%11 == 0 {
				v = "<del>"
			}
			kvs[k] = v
		}
		tbl := buildTable(t, dram, nv, uint64(round+1), seq, kvs)
		seq += 1000
		if err := repo.Absorb(tbl); err != nil {
			t.Fatal(err)
		}
		for k, v := range kvs {
			if v == "<del>" {
				delete(golden, k)
			} else {
				golden[k] = v
			}
		}
	}
	if repo.Count() != int64(len(golden)) {
		t.Fatalf("repo count = %d, want %d", repo.Count(), len(golden))
	}
	for k, v := range golden {
		got, _, _, ok := repo.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("repo.Get(%s) = %q ok=%v, want %q", k, got, ok, v)
		}
	}
	// Deleted keys are truly gone — no tombstones at the bottom.
	it := repo.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if it.Kind() == keys.KindDelete {
			t.Fatalf("tombstone %q survived in repository", it.Key())
		}
		n++
	}
	if n != len(golden) {
		t.Fatalf("repo iteration found %d entries, want %d", n, len(golden))
	}
	if repo.GarbageBytes() == 0 {
		t.Error("overwrites produced no repository garbage accounting")
	}
	if _, err := repo.List().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepositoryConcurrentReadsDuringAbsorb(t *testing.T) {
	dram, nv := devices()
	repo, _ := NewRepository(nv, 1<<20)
	base := map[string]string{}
	for i := 0; i < 300; i++ {
		base[fmt.Sprintf("key-%04d", i)] = "base"
	}
	t0 := buildTable(t, dram, nv, 1, 1, base)
	if err := repo.Absorb(t0); err != nil {
		t.Fatal(err)
	}

	update := map[string]string{}
	for i := 0; i < 300; i += 2 {
		update[fmt.Sprintf("key-%04d", i)] = "updated"
	}
	t1 := buildTable(t, dram, nv, 2, 1000, update)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("key-%04d", rnd.Intn(300))
				v, _, _, ok := repo.Get([]byte(k))
				if !ok || (string(v) != "base" && string(v) != "updated") {
					select {
					case errCh <- fmt.Errorf("repo.Get(%s) = %q ok=%v", k, v, ok):
					default:
					}
					return
				}
			}
		}(g)
	}
	if err := repo.Absorb(t1); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want := "base"
		if i%2 == 0 {
			want = "updated"
		}
		v, _, _, ok := repo.Get([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("after absorb, Get(%s) = %q, want %q", k, v, want)
		}
	}
}

func TestArenaReleaseAfterLazyCopy(t *testing.T) {
	dram, nv := devices()
	repo, _ := NewRepository(nv, 1<<20)
	old := buildTable(t, dram, nv, 1, 1, map[string]string{"a": "1", "b": "2"})
	newer := buildTable(t, dram, nv, 2, 100, map[string]string{"b": "3", "c": "4"})
	merged := NewMerge(newer, old).Run()
	if err := repo.Absorb(merged); err != nil {
		t.Fatal(err)
	}
	// The paper's lazy freeing: after lazy-copy, every consumed arena is
	// released wholesale, and the repository still serves everything.
	merged.ReleaseRegions(nv)
	for k, v := range map[string]string{"a": "1", "b": "3", "c": "4"} {
		got, _, _, ok := repo.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("after arena release, repo.Get(%s) = %q ok=%v", k, got, ok)
		}
	}
}

func TestAttachRebuildsTable(t *testing.T) {
	dram, nv := devices()
	kvs := map[string]string{"x": "1", "y": "2", "z": "3"}
	tbl := buildTable(t, dram, nv, 7, 50, kvs)
	re := Attach(nv.Space(), tbl.List().Head(), 7, tbl.Regions(), fp())
	if re.Count() != 3 || re.MinSeq != 50 || re.MaxSeq != 52 {
		t.Fatalf("reattached: count=%d seq=[%d,%d]", re.Count(), re.MinSeq, re.MaxSeq)
	}
	for k, v := range kvs {
		got, _, _, ok := re.GetSafe([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("reattached Get(%s) = %q", k, got)
		}
		if !re.MayContain([]byte(k)) {
			t.Fatalf("reattached bloom lost %s", k)
		}
	}
}

func TestMergeOrderValidation(t *testing.T) {
	dram, nv := devices()
	old := buildTable(t, dram, nv, 1, 1, map[string]string{"a": "1"})
	newer := buildTable(t, dram, nv, 2, 100, map[string]string{"b": "2"})
	defer func() {
		if recover() == nil {
			t.Error("NewMerge with reversed pair did not panic")
		}
	}()
	NewMerge(old, newer)
}

func TestMergeEmptyTables(t *testing.T) {
	dram, nv := devices()
	empty1 := buildTable(t, dram, nv, 1, 1, map[string]string{})
	empty2 := buildTable(t, dram, nv, 2, 2, map[string]string{})
	merged := NewMerge(empty2, empty1).Run()
	if merged.Count() != 0 {
		t.Fatalf("merged empty count = %d", merged.Count())
	}
	full := buildTable(t, dram, nv, 3, 10, map[string]string{"k": "v"})
	merged2 := NewMerge(full, merged).Run()
	if v, _, _, ok := merged2.GetSafe([]byte("k")); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("merge with empty old table lost data")
	}
}
