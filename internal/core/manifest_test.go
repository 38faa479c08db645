package core

import (
	"fmt"
	"testing"

	"miodb/internal/nvm"
)

// liveGeneration opens the manifest generation a crash image's superblock
// points at.
func liveGeneration(t *testing.T, img *CrashImage) *manifestLog {
	t.Helper()
	m, err := attachManifestLog(img.NVM, img.Space.Region(0))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tearGeneration leaves an interrupted append at the end of the live
// generation: a record header that claims more payload than exists.
func tearGeneration(t *testing.T, img *CrashImage) {
	t.Helper()
	gen := liveGeneration(t, img).gen
	addr, err := gen.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	gen.Write(addr, []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0x0f, 0x00, 1, 2, 3, 4, 5, 6, 7, 8})
}

// replayedRecords counts the records Recover would replay from img.
func replayedRecords(t *testing.T, img *CrashImage) int {
	t.Helper()
	n := 0
	if err := liveGeneration(t, img).scan(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// checkGolden fails unless db serves every key of golden at its value.
func checkGolden(t *testing.T, db *DB, golden map[string]string) {
	t.Helper()
	for k, v := range golden {
		if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
}

// TestManifestSuperblockStaysFlat drives well over a thousand manifest
// edits through a running store: the superblock (region 0 plus the live
// generation) must end no larger than right after Open's first roll, and
// recovery must replay one snapshot plus at most snapshotEvery-1 deltas.
func TestManifestSuperblockStaysFlat(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	footprint := func() int64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.manifest.super.Footprint() + db.manifest.gen.Footprint()
	}
	first := footprint()
	val := make([]byte, 100)
	for i := 0; i < 40000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i%5000)), val); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	// Every rotation logs a rotate record, every flush a flush-done.
	if s := db.Stats(); s.Rotations+s.Flushes < 1000 {
		t.Fatalf("%d rotations and %d flushes: fewer than 1000 manifest edits", s.Rotations, s.Flushes)
	}
	if end := footprint(); end > first {
		t.Fatalf("superblock grew from %d to %d bytes", first, end)
	}
	img := db.CrashForTest()
	if n := replayedRecords(t, img); n < 1 || n > snapshotEvery {
		t.Fatalf("recovery replays %d records, want 1 snapshot and at most %d deltas", n, snapshotEvery-1)
	}
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRollsWhenRecordDoesNotFit appends deltas too large for many
// to share a generation's chunk: the edit whose record does not fit what
// remains rolls a new generation long before snapshotEvery edits, and no
// generation ever spills past its one chunk.
func TestManifestRollsWhenRecordDoesNotFit(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	db.mu.Lock()
	first := db.manifest.gen
	edits := 0
	for ; db.manifest.gen == first; edits++ {
		// A range drop of an absent tombstone, padded: replay reads the
		// seq and ignores the rest.
		err := db.appendManifestLocked(recRangeDrop, func(e *encoder) {
			e.u64(1 << 62)
			e.buf.Write(make([]byte, 3000))
		})
		if err != nil {
			db.mu.Unlock()
			t.Fatal(err)
		}
		if gen := db.manifest.gen; gen.Size() > int64(gen.ChunkSize()) || gen.Footprint() != int64(gen.ChunkSize()) {
			db.mu.Unlock()
			t.Fatalf("generation of %d bytes, %d backed, spills past its %d-byte chunk", gen.Size(), gen.Footprint(), gen.ChunkSize())
		}
	}
	db.mu.Unlock()
	if edits >= snapshotEvery {
		t.Fatalf("rolled after %d edits: the record that did not fit was not what rolled", edits)
	}
	re, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestManifestEditsAfterTornGeneration tears a record of the live
// generation, recovers, applies more than a generation's worth of edits,
// crashes and recovers again: every write after the tear must come back.
// Appending behind a torn record would hide those edits from the second
// recovery; the recovery that finds the tear must roll past it instead.
func TestManifestEditsAfterTornGeneration(t *testing.T) {
	opts := smallOpts()
	opts.MemTableSize = 4 << 10 // a rotation every few dozen Puts
	db := mustOpen(t, opts)
	golden := map[string]string{}
	put := func(db *DB, i int) {
		k, v := fmt.Sprintf("key-%04d", i%600), fmt.Sprintf("v%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	for i := 0; i < 1000; i++ {
		put(db, i)
	}
	img := db.CrashForTest()
	tearGeneration(t, img)
	torn := liveGeneration(t, img).gen

	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	// More edits than a generation holds, so at least one roll lands
	// behind the tear, and the last edits before the crash are deltas.
	edits := func() int64 { s := re.Stats(); return s.Rotations + s.Flushes }
	for i, from := 1000, edits(); edits()-from < snapshotEvery+8; i++ {
		put(re, i)
	}
	re.mu.Lock()
	if re.manifest.gen == torn {
		t.Fatal("recovery appends to the torn generation")
	}
	re.mu.Unlock()
	re.WaitIdle()
	img = re.CrashForTest()

	again, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	checkGolden(t, again, golden)
	again.WaitIdle()
	if err := again.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := again.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRollCrashAtEveryByte crashes a running store at every byte
// from the old generation's last delta through the roll's pointer store.
// Whatever byte the crash lands on, the image holds exactly one
// generation — the old one until the pointer store lands, the new one
// from then on — and a clean recovery keeps every acknowledged write with
// no region leaked.
func TestManifestRollCrashAtEveryByte(t *testing.T) {
	opts := smallOpts()
	// A few Puts that fit one memtable: no background work, so every
	// store writes the same bytes from here on.
	open := func() (*DB, map[string]string) {
		db := mustOpen(t, opts)
		golden := map[string]string{}
		for i := 0; i < 20; i++ {
			k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			golden[k] = v
		}
		return db, golden
	}
	// roll appends the generation's last delta, then rolls in place of
	// the next one. Both edits drop a range tombstone that does not
	// exist: real records whose replay changes nothing.
	roll := func(db *DB, plan *nvm.FaultPlan) (old, fresh uint32) {
		db.mu.Lock()
		defer db.mu.Unlock()
		old = db.manifest.gen.Index()
		db.manifestEdits = snapshotEvery - 2
		db.nvm.SetFaultPlan(plan)
		if db.logRangeDropLocked(1<<62) == nil {
			db.logRangeDropLocked(1 << 62)
		}
		db.nvm.SetFaultPlan(nil)
		return old, db.manifest.gen.Index()
	}

	// The bytes the two edits write: one less than the smallest budget
	// they survive. A budget of exactly that many bytes lets the pointer
	// store reach the media and then reports the crash.
	crashes := func(budget int64) bool {
		db, _ := open()
		plan := nvm.NewFaultPlan(1).CrashAfterBytes(budget)
		old, fresh := roll(db, plan)
		db.CrashForTest()
		if !plan.Crashed() && old == fresh {
			t.Fatal("the edits did not roll a generation")
		}
		return plan.Crashed()
	}
	lo, hi := int64(1), int64(1<<20)
	for lo < hi {
		if mid := (lo + hi) / 2; crashes(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	total := lo - 1

	for b := int64(0); b <= total; b++ {
		db, golden := open()
		regions := len(db.space.Regions())
		old, _ := roll(db, nvm.NewFaultPlan(1).CrashAfterBytes(b))
		img := db.CrashForTest()

		if n := len(img.Space.Regions()); n != regions {
			t.Fatalf("budget %d: the crash left %d regions, %d before the roll", b, n, regions)
		}
		pointed := liveGeneration(t, img).gen.Index()
		if landed := b == total; landed == (pointed == old) {
			t.Fatalf("budget %d of %d: superblock names region %d, old generation %d", b, total, pointed, old)
		}
		re, err := Recover(img, opts)
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		checkGolden(t, re, golden)
		re.WaitIdle()
		if err := re.CheckConsistency(); err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		if err := re.CheckRegionAccounting(); err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		re.Close()
	}
}
