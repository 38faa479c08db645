package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"miodb/internal/lsm"
)

// smallOpts forces frequent flushes and merges so short tests exercise the
// whole pipeline.
func smallOpts() Options {
	return Options{
		MemTableSize:   8 << 10,
		ChunkSize:      32 << 10,
		Levels:         4,
		FilterCapacity: 1 << 12,
	}
}

func mustOpen(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBasicPutGetDelete(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()

	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("absent")); err != ErrNotFound {
		t.Fatalf("Get(absent) err = %v", err)
	}
	if err := db.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("hello")); err != ErrNotFound {
		t.Fatalf("Get after Delete err = %v", err)
	}
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	k := []byte("key")
	for i := 0; i < 50; i++ {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Get(k)
	if err != nil || string(v) != "v49" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestDataSurvivesFullPipeline(t *testing.T) {
	// Write enough to force many flushes, zero-copy merges through every
	// level, and lazy copies into the repository; verify everything.
	db := mustOpen(t, smallOpts())
	defer db.Close()

	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(1))
	val := make([]byte, 100)
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%05d", rnd.Intn(2000))
		rnd.Read(val)
		v := fmt.Sprintf("%x", val[:8]) + fmt.Sprintf("-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
		if i%13 == 0 {
			dk := fmt.Sprintf("key-%05d", rnd.Intn(2000))
			if err := db.Delete([]byte(dk)); err != nil {
				t.Fatal(err)
			}
			delete(golden, dk)
		}
	}
	db.WaitIdle()

	// Much of the data must have reached the repository by now.
	if db.RepositoryCount() == 0 {
		t.Error("nothing reached the repository")
	}
	for k, v := range golden {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	// Deleted keys stay dead.
	for k := range golden {
		_ = k
		break
	}
}

func TestScanMatchesModel(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", rnd.Intn(1000))
		v := fmt.Sprintf("val-%d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
		if i%17 == 0 {
			dk := fmt.Sprintf("key-%05d", rnd.Intn(1000))
			db.Delete([]byte(dk))
			delete(golden, dk)
		}
	}
	db.WaitIdle()

	seen := map[string]string{}
	var prev []byte
	it := db.NewIterator()
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && bytes.Compare(k, prev) <= 0 {
			t.Fatalf("scan out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		seen[string(k)] = string(it.Value())
	}
	if len(seen) != len(golden) {
		t.Fatalf("scan saw %d keys, want %d", len(seen), len(golden))
	}
	for k, v := range golden {
		if seen[k] != v {
			t.Fatalf("scan[%s] = %q, want %q", k, seen[k], v)
		}
	}

	// Bounded scan from a midpoint.
	n := 0
	err := db.Scan([]byte("key-00500"), 10, func(k, v []byte) bool {
		if bytes.Compare(k, []byte("key-00500")) < 0 {
			t.Errorf("Scan yielded %q before start", k)
		}
		n++
		return true
	})
	if err != nil || n > 10 {
		t.Fatalf("bounded scan: n=%d err=%v", n, err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()

	const nKeys = 500
	// Seed all keys so readers always find them.
	for i := 0; i < nKeys; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v-init"))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
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
				k := fmt.Sprintf("key-%04d", rnd.Intn(nKeys))
				v, err := db.Get([]byte(k))
				if err != nil {
					select {
					case errCh <- fmt.Errorf("Get(%s): %v", k, err):
					default:
					}
					return
				}
				if !bytes.HasPrefix(v, []byte("v-")) {
					select {
					case errCh <- fmt.Errorf("Get(%s) = %q", k, v):
					default:
					}
					return
				}
			}
		}(g)
	}
	// Scanner goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it := db.NewIterator()
			var prev []byte
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
					select {
					case errCh <- fmt.Errorf("scan disorder at %q", it.Key()):
					default:
					}
					it.Close()
					return
				}
				prev = append(prev[:0], it.Key()...)
			}
			it.Close()
		}
	}()

	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("key-%04d", rnd.Intn(nKeys))
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	db.WaitIdle()
}

func TestLevelSeqOrderingInvariant(t *testing.T) {
	// Any table in level i must hold strictly newer sequences than any
	// table in level i+1 — the invariant the first-hit-wins read path
	// depends on.
	db := mustOpen(t, smallOpts())
	defer db.Close()
	for i := 0; i < 4000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i%1500)), bytes.Repeat([]byte("v"), 50))
	}
	db.WaitIdle()

	db.mu.Lock()
	defer db.mu.Unlock()
	prevMin := uint64(1 << 62)
	for level, entries := range db.current.Load().levels {
		for _, e := range entries {
			te, ok := e.(tableEntry)
			if !ok {
				continue
			}
			if te.t.MaxSeq >= prevMin {
				t.Fatalf("level %d table [%d,%d] overlaps newer level (prevMin=%d)",
					level, te.t.MinSeq, te.t.MaxSeq, prevMin)
			}
		}
		// Entries within a level are newest-first.
		for i := 1; i < len(entries); i++ {
			if entries[i].newestSeq() >= entries[i-1].newestSeq() {
				t.Fatalf("level %d entries not newest-first", level)
			}
		}
		if len(entries) > 0 {
			if ms := entries[len(entries)-1]; true {
				_ = ms
			}
			// Update prevMin to the oldest minSeq in this level.
			for _, e := range entries {
				if te, ok := e.(tableEntry); ok && te.t.MinSeq < prevMin {
					prevMin = te.t.MinSeq
				}
			}
		}
	}
}

func TestWriteAmplificationBoundedInMemory(t *testing.T) {
	// The paper's headline WA result: WAL(1×) + one-piece flush(~1×) +
	// lazy copy(≤1×) + pointer traffic ⇒ ≈3, far below classic LSM.
	opts := smallOpts()
	db := mustOpen(t, opts)
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 4000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i%1600)), val)
	}
	db.FlushAll()
	s := db.Stats()
	if s.WriteAmplification <= 0 {
		t.Fatal("no WA computed")
	}
	if s.WriteAmplification > 4.0 {
		t.Errorf("in-memory WA = %.2f, expected ≈3 or less", s.WriteAmplification)
	}
	t.Logf("WA = %.2f, flushes = %d, stalls = %v", s.WriteAmplification, s.Flushes, s.IntervalStall)
	// MioDB's design goal: zero write stalls.
	if s.IntervalStall != 0 || s.CumulativeStall != 0 {
		t.Errorf("MioDB stalled: interval=%v cumulative=%v", s.IntervalStall, s.CumulativeStall)
	}
}

func TestCrashRecoveryMemtableOnly(t *testing.T) {
	opts := smallOpts()
	opts.MemTableSize = 1 << 20 // nothing flushes: all data lives in WAL
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
	}
	db.Delete([]byte("key-005"))
	delete(golden, "key-005")

	img := db.CrashForTest()
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("after recovery Get(%s) = %q, %v", k, got, err)
		}
	}
	if _, err := re.Get([]byte("key-005")); err != ErrNotFound {
		t.Error("deleted key resurrected by recovery")
	}
	// Recovered store must accept new writes with fresh sequences.
	if err := re.Put([]byte("post-crash"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, err := re.Get([]byte("post-crash")); err != nil || string(v) != "ok" {
		t.Fatal("post-recovery write broken")
	}
}

func TestCrashRecoveryFullPipeline(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", rnd.Intn(1200))
		v := fmt.Sprintf("val-%d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
	}
	// Crash with data spread across memtable, elastic buffer, and repo.
	img := db.CrashForTest()
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	missing, wrong := 0, 0
	for k, v := range golden {
		got, err := re.Get([]byte(k))
		if err != nil {
			missing++
			continue
		}
		if string(got) != v {
			wrong++
		}
	}
	if missing > 0 || wrong > 0 {
		t.Fatalf("after recovery: %d missing, %d wrong of %d", missing, wrong, len(golden))
	}
	re.WaitIdle()
	// Scans over recovered state stay ordered and complete.
	n := 0
	it := re.NewIterator()
	defer it.Close()
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
			t.Fatal("recovered scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != len(golden) {
		t.Fatalf("recovered scan saw %d keys, want %d", n, len(golden))
	}
}

func TestCrashRecoveryDoubleCrash(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	img := db.CrashForTest()
	re1, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1500; i++ {
		re1.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	img2 := re1.CrashForTest()
	re2, err := Recover(img2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := re2.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after double crash Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestSSDModeEndToEnd(t *testing.T) {
	opts := smallOpts()
	// Two L0 tables start a tree compaction, so the load leaves some
	// for WaitIdle.
	opts.SSD = &SSDOptions{LSM: lsm.Options{L0Slowdown: 2}}
	db := mustOpen(t, opts)
	defer db.Close()
	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key-%05d", rnd.Intn(1500))
		v := fmt.Sprintf("val-%d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
	}
	db.WaitIdle()
	// The tree's compaction is a job on the store's table: WaitIdle
	// leaves none pending.
	if n, slow := db.ssd.L0Count(), db.ssd.Options().L0Slowdown; n >= slow {
		t.Errorf("WaitIdle returned with %d L0 tables, slowdown at %d", n, slow)
	}
	var below int64
	for _, n := range db.ssd.LevelSizes()[1:] {
		below += n
	}
	if below == 0 {
		t.Error("no tree compaction ran")
	}
	for k, v := range golden {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("SSD mode Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	// Data must actually have reached the SSD tier.
	s := db.Stats()
	var ssdWritten int64
	for _, d := range s.Devices {
		if d.Name == "ssd" {
			ssdWritten = d.BytesWritten
		}
	}
	if ssdWritten == 0 {
		t.Error("nothing was written to the SSD tier")
	}
	// Scans cross the NVM/SSD boundary.
	seen := 0
	it := db.NewIterator()
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		seen++
	}
	if seen != len(golden) {
		t.Fatalf("SSD-mode scan saw %d keys, want %d", seen, len(golden))
	}
}

func TestAblationModesProduceSameData(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"no-parallel-compaction", func(o *Options) { o.DisableParallelCompaction = true }},
		{"no-zero-copy", func(o *Options) { o.DisableZeroCopyMerge = true }},
		{"no-one-piece-flush", func(o *Options) { o.DisableOnePieceFlush = true }},
		{"no-wal", func(o *Options) { o.DisableWAL = true }},
		{"two-levels", func(o *Options) { o.Levels = 2 }},
		{"ten-levels", func(o *Options) { o.Levels = 10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			tc.mod(&opts)
			db := mustOpen(t, opts)
			defer db.Close()
			golden := map[string]string{}
			rnd := rand.New(rand.NewSource(21))
			for i := 0; i < 2500; i++ {
				k := fmt.Sprintf("key-%05d", rnd.Intn(900))
				v := fmt.Sprintf("val-%d", i)
				db.Put([]byte(k), []byte(v))
				golden[k] = v
			}
			db.WaitIdle()
			for k, v := range golden {
				got, err := db.Get([]byte(k))
				if err != nil || string(got) != v {
					t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
				}
			}
		})
	}
}

func TestCloseIsIdempotentAndRejectsOps(t *testing.T) {
	db := mustOpen(t, smallOpts())
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	if err := db.Put([]byte("k2"), []byte("v")); err != ErrClosed {
		t.Errorf("Put after Close = %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Errorf("Get after Close = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("v"), 64))
	}
	db.Get([]byte("key-0000"))
	db.Delete([]byte("key-0000"))
	db.FlushAll()
	s := db.Stats()
	if s.Puts != 1000 || s.Gets != 1 || s.Deletes != 1 {
		t.Errorf("op counts: %d/%d/%d", s.Puts, s.Gets, s.Deletes)
	}
	if s.Flushes == 0 || s.FlushTime == 0 {
		t.Error("flush accounting empty")
	}
	if s.UserBytesWritten == 0 {
		t.Error("user bytes empty")
	}
	if len(s.Devices) == 0 {
		t.Error("no devices attached")
	}
}

func TestNVMFootprintReclaimed(t *testing.T) {
	// The elastic buffer must shrink back: after the store drains,
	// consumed arenas are released (lazy freeing), so footprint is far
	// below the total volume ever flushed.
	opts := smallOpts()
	db := mustOpen(t, opts)
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 8000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i%500)), val)
	}
	db.FlushAll()
	live := db.RepositoryCount()
	if live != 500 {
		t.Fatalf("repository holds %d keys, want 500", live)
	}
	foot := db.NVMUsage()
	s := db.Stats()
	var nvmWritten int64
	for _, d := range s.Devices {
		if d.Name == "nvm" {
			nvmWritten = d.BytesWritten
		}
	}
	if foot >= nvmWritten/2 {
		t.Errorf("NVM footprint %d not reclaimed (total written %d)", foot, nvmWritten)
	}
}

func TestCheckConsistencyAfterChurn(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	rnd := rand.New(rand.NewSource(77))
	for i := 0; i < 6000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", rnd.Intn(1500))), bytes.Repeat([]byte("v"), 64))
		if i%11 == 0 {
			db.Delete([]byte(fmt.Sprintf("key-%05d", rnd.Intn(1500))))
		}
	}
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistencyAfterRecovery(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i%800)), []byte(fmt.Sprintf("v%d", i)))
	}
	img := db.CrashForTest()
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.WaitIdle()
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMemtableFilterFollowsBloomOption: every memtable of a store with
// bloom filters on has one of the tables' parameters, and a store with
// BloomBitsPerKey < 0 has none; both answer every Get — sets, overwrites,
// tombstones and never-written keys, live and through a snapshot taken
// before a last round of overwrites — whichever buffer or table holds it.
func TestMemtableFilterFollowsBloomOption(t *testing.T) {
	for _, bits := range []int{0, -1} {
		t.Run(fmt.Sprintf("BloomBitsPerKey=%d", bits), func(t *testing.T) {
			opts := smallOpts()
			opts.BloomBitsPerKey = bits
			db := mustOpen(t, opts)
			defer db.Close()
			golden := map[string]string{}
			write := func(round int) {
				for i := 0; i < 600; i++ {
					k := fmt.Sprintf("key-%05d", i*7%600)
					if (i+round)%5 == 0 {
						if err := db.Delete([]byte(k)); err != nil {
							t.Fatal(err)
						}
						delete(golden, k)
						continue
					}
					v := fmt.Sprintf("v%d-%d-%s", round, i, bytes.Repeat([]byte("x"), 40))
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					golden[k] = v
				}
			}
			check := func(get func([]byte) ([]byte, error), want map[string]string) {
				t.Helper()
				for i := 0; i < 700; i++ {
					k := fmt.Sprintf("key-%05d", i)
					v, err := get([]byte(k))
					if w, ok := want[k]; ok != (err == nil) || ok && string(v) != w {
						t.Fatalf("Get(%s) = %q, %v; want %q (present %v)", k, v, err, w, ok)
					}
				}
			}
			for round := 0; round < 3; round++ {
				write(round)
			}
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			atSnap := make(map[string]string, len(golden))
			for k, v := range golden {
				atSnap[k] = v
			}
			write(3)
			// The active memtable's filter has no writer but this goroutine;
			// an immutable one's may already be an L0 table's, merging.
			v := db.current.Load()
			if f := v.mem.mt.Filter(); bits >= 0 && (f == nil || f.Keys() != int(v.mem.mt.Count())) {
				t.Fatalf("active memtable of %d entries has filter %v", v.mem.mt.Count(), f)
			}
			for _, h := range append([]*memHandle{v.mem}, v.imms...) {
				if f := h.mt.Filter(); (f == nil) != (bits < 0) {
					t.Fatalf("BloomBitsPerKey %d, memtable filter %v", bits, f)
				}
			}
			check(db.Get, golden)
			check(snap.Get, atSnap)
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
