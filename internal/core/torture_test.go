package core

import (
	"fmt"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
)

// TestCrashTorture is the randomized crash-recovery harness: dozens of
// write / crash / recover / verify cycles with injected device crashes,
// torn tails, and interrupted recoveries. See RunTorture for the checked
// invariants. The seed fixes the workload, not the goroutine schedule
// (see TortureConfig.Seed), so a failure need not reproduce; make
// torture-stress runs it as a rate.
func TestCrashTorture(t *testing.T) {
	cycles := 50
	if testing.Short() {
		cycles = 12
	}
	rep, err := RunTorture(TortureConfig{Seed: 1, Cycles: cycles, Ops: 300})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsAcked == 0 || rep.KeysChecked == 0 {
		t.Fatalf("torture run did no work: %+v", rep)
	}
	if rep.RangeDeletes == 0 {
		t.Fatalf("torture run mixed in no range deletes: %+v", rep)
	}
	t.Log(rep.String())
}

// TestCrashTortureSeeds runs shorter bursts across several seeds so the
// crash points land in different phases of the pipeline.
func TestCrashTortureSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by TestCrashTorture")
	}
	for seed := int64(2); seed <= 6; seed++ {
		rep, err := RunTorture(TortureConfig{Seed: seed, Cycles: 10, Ops: 250})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s", seed, rep)
	}
}

// TestCrashTortureValueLog runs the harness with key-value separation
// active: padded values straddle the threshold, value-log GC races the
// armed crash plans and runs again right after every recovery, and the
// usual sweep verifies every key — which now exercises pointer
// resolution against relocated and reclaimed segments.
func TestCrashTortureValueLog(t *testing.T) {
	cycles := 30
	if testing.Short() {
		cycles = 8
	}
	rep, err := RunTorture(TortureConfig{Seed: 7, Cycles: cycles, Ops: 300, ValueLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsAcked == 0 || rep.KeysChecked == 0 {
		t.Fatalf("torture run did no work: %+v", rep)
	}
	if rep.VlogAppends == 0 {
		t.Fatalf("no values routed through the value log: %+v", rep)
	}
	if rep.VlogReclaimed == 0 {
		t.Fatalf("value-log GC reclaimed nothing across %d cycles: %+v", rep.Cycles, rep)
	}
	t.Log(rep.String())
}

// TestFailedRelocationSeqIsNoFloor pins why RunTorture floors on the acked
// op's own sequence number: a value-log relocation whose append fails
// burns a seq that no log ever records, so LastSeq() read after an ack can
// exceed what recovery restores while every acked write survives.
func TestFailedRelocationSeqIsNoFloor(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)
	const n = 16
	key := func(i int) []byte { return []byte(fmt.Sprintf("floor%03d", i)) }
	golden := map[string]string{}
	for i := 0; i < n; i++ {
		v := bigVal(string(key(i)), 1<<10)
		if err := db.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
		golden[string(key(i))] = string(v)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Supersede three quarters in the memtable and report the old pointers
	// dropped, as the merge that meets them eventually will: a segment now
	// qualifies for GC with live entries left to relocate.
	v := db.current.Load()
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			continue
		}
		old, _, _, ok := db.newest(v, key(i), keys.MaxSeq)
		if !ok {
			t.Fatalf("%s not found", key(i))
		}
		old = append([]byte(nil), old...)
		nv := bigVal(string(key(i))+"-v2", 1<<10)
		if err := db.Put(key(i), nv); err != nil {
			t.Fatal(err)
		}
		golden[string(key(i))] = string(nv)
		db.onEntryDrop(old, keys.KindValuePtr)
	}
	if _, ok := db.vlog.PickGC(); !ok {
		t.Fatal("no segment qualifies for GC: the test no longer builds its scenario")
	}

	acked, err := db.commit(batchOp{key: []byte("acked"), value: []byte("last"), kind: keys.KindSet}, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden["acked"] = "last"

	// The relocation's value-log append is the next device write; failing
	// it burns the seq the entry was stamped with.
	_, dev := db.Devices()
	dev.SetFaultPlan(nvm.NewFaultPlan(1).FailWritesEvery(1))
	if _, err := db.RunValueLogGC(); err == nil {
		t.Fatal("GC relocated with every device write failing")
	}
	last := db.LastSeq()
	if last <= acked {
		t.Fatalf("LastSeq %d after the failed relocation, acked seq %d: no seq burned", last, acked)
	}

	img := db.CrashForTest()
	img.NVM.SetFaultPlan(nil)
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.LastSeq(); got >= last || got < acked {
		t.Fatalf("recovered seq %d: want at least the acked %d and below LastSeq %d before the crash", got, acked, last)
	}
	for k, want := range golden {
		if got, err := re.Get([]byte(k)); err != nil || string(got) != want {
			t.Fatalf("acked %s lost after recovery: err=%v", k, err)
		}
	}
}
