package core

import (
	"fmt"
	"strings"
	"testing"

	"miodb/internal/nvm"
)

// TestRecoveryTornManifestTail simulates a crash that tore the last record
// of the live manifest generation: recovery must fall back to the previous
// intact state and still serve everything durable up to it.
func TestRecoveryTornManifestTail(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	for i := 0; i < 1500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	img := db.CrashForTest()

	// Tear the live generation's tail, as an interrupted append would.
	tearGeneration(t, img)

	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := re.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after torn-tail recovery Get(%s) = %q, %v", k, v, err)
		}
	}
}

// TestRecoveryReplayRotatesMemtable recovers a crashed store whose WAL
// holds far more data than one (recovery-time) memtable: the replay loop
// must seal full memtables into the immutable queue and keep going, not
// overflow the DRAM arena. Shrinking MemTableSize between crash and
// recovery makes the overflow deterministic.
func TestRecoveryReplayRotatesMemtable(t *testing.T) {
	opts := smallOpts()
	opts.MemTableSize = 32 << 10
	db := mustOpen(t, opts)
	golden := map[string]string{}
	val := fmt.Sprintf("%064d", 7)
	for i := 0; i < 250; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := db.Put([]byte(k), []byte(val)); err != nil {
			t.Fatal(err)
		}
		golden[k] = val
	}
	img := db.CrashForTest()

	shrunk := opts
	shrunk.MemTableSize = minMemTableTarget // force many rotations during replay
	re, err := Recover(img, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	re.WaitIdle()
	// Only memtables replay sealed are flushed: the live one stays put.
	if f := re.Stats().Flushes; f < 2 {
		t.Fatalf("replay sealed %d memtables, want several", f)
	}
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := re.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleCrashDuringRecovery crashes the recovery itself at a sweep
// of byte budgets — tearing the WAL re-log, the manifest snapshot, or
// the tail repair at different offsets — and verifies a second, clean
// recovery from the same image still produces every durable update, a
// consistent structure, and no leaked regions. This is the crash-during-
// Recover guarantee: a failed recovery must leave the image exactly as
// recoverable as it found it.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for i := 0; i < 1200; i++ {
		k := fmt.Sprintf("key-%04d", i%400)
		v := fmt.Sprintf("v%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	img := db.CrashForTest()

	for _, budget := range []int64{1, 64, 512, 4 << 10, 32 << 10, 256 << 10} {
		img.NVM.SetFaultPlan(nvm.NewFaultPlan(budget).CrashAfterBytes(budget).TornWrites())
		re, err := Recover(img, opts)
		if err == nil {
			// Budget outlived this recovery attempt; crash the recovered
			// store instead and recover the fresh image below.
			img = re.CrashForTest()
		}
		img.NVM.SetFaultPlan(nil)

		re, err = Recover(img, opts)
		if err != nil {
			t.Fatalf("budget %d: clean recovery after interrupted recovery: %v", budget, err)
		}
		for k, v := range golden {
			got, err := re.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("budget %d: Get(%s) = %q, %v; want %q", budget, k, got, err, v)
			}
		}
		re.WaitIdle()
		if err := re.CheckConsistency(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := re.CheckRegionAccounting(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		// Crash again and reuse the image for the next budget.
		img = re.CrashForTest()
	}
}

// TestRecoveryRejectsWrongLevels guards the structural-option check.
func TestRecoveryRejectsWrongLevels(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	db.Put([]byte("k"), []byte("v"))
	img := db.CrashForTest()

	bad := opts
	bad.Levels = opts.Levels + 2
	if _, err := Recover(img, bad); err == nil {
		t.Fatal("recovery with mismatched Levels succeeded")
	}
	// The image is still usable with the right options.
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, err := re.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatal("recovery after failed attempt broken")
	}
}

// TestRecoveryLongDeltaChain recovers after more edits than the snapshot
// interval, merges through every level included: replay reads only the
// last generation, its snapshot and the deltas after it.
func TestRecoveryLongDeltaChain(t *testing.T) {
	opts := smallOpts()
	opts.MemTableSize = 4 << 10 // many rotations → many delta records
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key-%04d", i%800)
		v := fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
	}
	img := db.CrashForTest()
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
}

// TestRecoveryRefusesMissingWALRegion: a WAL region the manifest lists
// but the image lacks is lost acknowledged data, and recovery must name
// it instead of replaying around it.
func TestRecoveryRefusesMissingWALRegion(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	walRegion := db.current.Load().mem.log.Region()
	img := db.CrashForTest()
	img.Space.Release(walRegion)
	re, err := Recover(img, opts)
	if err == nil {
		re.Close()
		t.Fatal("recovered with the active WAL region gone")
	}
	if want := fmt.Sprintf("WAL region %d missing", walRegion.Index()); !strings.Contains(err.Error(), want) {
		t.Fatalf("recover: %v, want %q", err, want)
	}
}

// TestRecoveryCrashRightAfterPublishSnapshot crashes a recovery on the
// byte that completes its publish snapshot: the append reports the crash,
// yet the whole record is on the media and names the attempt's fresh WAL
// regions. The failed attempt must leave those regions in place, so the
// next attempt replays them and keeps every acknowledged write.
func TestRecoveryCrashRightAfterPublishSnapshot(t *testing.T) {
	opts := smallOpts()
	// A few Puts that fit one memtable: no background work, so every
	// image is the same and so is the byte count of its recovery.
	image := func() (*CrashImage, map[string]string) {
		db := mustOpen(t, opts)
		golden := map[string]string{}
		for i := 0; i < 20; i++ {
			k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			golden[k] = v
		}
		return db.CrashForTest(), golden
	}
	crashes := func(budget int64) bool {
		img, _ := image()
		img.NVM.SetFaultPlan(nvm.NewFaultPlan(1).CrashAfterBytes(budget))
		re, err := Recover(img, opts)
		if err == nil {
			re.Close()
		}
		return err != nil
	}
	// The smallest budget recovery survives is one past the bytes it
	// writes; the publish snapshot is its last write.
	lo, hi := int64(1), int64(1<<20)
	for lo < hi {
		if mid := (lo + hi) / 2; crashes(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}

	img, golden := image()
	plan := nvm.NewFaultPlan(1).CrashAfterBytes(lo - 1)
	img.NVM.SetFaultPlan(plan)
	if _, err := Recover(img, opts); err == nil || !plan.Crashed() {
		t.Fatalf("recovery with a %d-byte budget: %v, crashed %v", lo-1, err, plan.Crashed())
	}
	img.NVM.SetFaultPlan(nil)
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		if got, err := re.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	if err := re.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}
