package core

import (
	"fmt"
	"testing"

	"miodb/internal/vaddr"
	"miodb/internal/vlog"
)

// TestReleaseAtIdle pins when queued garbage runs: a job that leaves the
// store idle retires the version its garbage is queued on, so after
// FlushAll — no reader pinned — no version holds a release and NVMUsage is
// exactly the footprint of the regions a live structure owns. Rounds of
// different lengths end on different last background events (a flush, a
// merge install, a lazy copy); before, only the rounds that happened to
// end on an edit after the last queue read clean.
func TestReleaseAtIdle(t *testing.T) {
	db := mustOpen(t, smallOpts())
	written := 0
	for round := 0; round < 14; round++ {
		for n := 120 + 83*round; n > 0; n-- {
			k := fmt.Sprintf("key-%05d", written%700)
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("value-%d-%060d", round, written))); err != nil {
				t.Fatal(err)
			}
			written++
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}

		what := fmt.Sprintf("round %d", round)
		versions, pending, _ := db.versionChainGauge()
		db.mu.Lock()
		queued := len(db.current.Load().releaseFns)
		live, err := db.liveRegionsLocked()
		db.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if versions != 1 || pending != 0 || queued != 0 {
			t.Fatalf("%s: %d versions on the chain, %d releases pending on retired ones, %d queued on the current one",
				what, versions, pending, queued)
		}
		var owned int64
		for _, r := range db.space.Regions() {
			if live[r.Index()] && r.Meter() == vaddr.Meter(db.nvm) {
				owned += r.Footprint()
			}
		}
		if usage := db.NVMUsage(); usage != owned {
			t.Fatalf("%s: NVMUsage %d B, live structures own %d B", what, usage, owned)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestValueLogGCPacing drives the background collector's pass by hand: a
// pass reclaims at most one segment per segment created since the pass
// before, plus one, however many qualify — and the explicit RunValueLogGC
// still takes everything that does.
func TestValueLogGCPacing(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	// Fill a dozen segments with live values and drain, so no merge — and
	// therefore no kick of the store's own collector — is still to come.
	const keys = 60
	for i := 0; i < keys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("pace%03d", i)), bigVal("pace", 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Kill every value without a merge noticing: tombstones that stay in
	// the memtable make the entries dead to the collector's own liveness
	// scan (nothing to relocate, so reclaiming creates no segment), and the
	// advisory count that PickGC reads is set by hand.
	for i := 0; i < keys; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("pace%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range db.vlog.Segments() {
		if err := db.vlog.Walk(id, func(_ []byte, _ uint64, a vlog.Addr) bool {
			db.vlog.MarkDead(a)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	// All but the active segment are sealed and qualify now; the active
	// one follows once the log grows past it.
	dead := len(db.vlog.Segments())
	if dead < 8 {
		t.Fatalf("only %d segments to collect", dead)
	}

	// A kick left over from the drain may still run one pass of the store's
	// own collector beside this test's; it is paced the same way, so it can
	// take a segment or two from the backlog but not the backlog.
	seen := db.vlog.NextID()
	for pass := 0; pass < 3; pass++ {
		n, err := db.vlogGCPass(&seen)
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 {
			t.Fatalf("pass %d reclaimed %d segments with none created since the last", pass, n)
		}
	}
	if seen != db.vlog.NextID() {
		t.Fatalf("collecting dead segments created segments: next id %d -> %d", seen, db.vlog.NextID())
	}
	if _, ok := db.vlog.PickGC(); !ok {
		t.Fatalf("no backlog left of %d dead segments after three passes of one", dead)
	}

	// Grow the log by a few segments of live values: the next pass may take
	// that many more.
	for i := 0; i < 30; i++ {
		if err := db.Put([]byte(fmt.Sprintf("live%03d", i)), bigVal("live", 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	created := int(db.vlog.NextID() - seen)
	if created < 2 {
		t.Fatalf("30 KiB of values created %d segments", created)
	}
	n, err := db.vlogGCPass(&seen)
	if err != nil {
		t.Fatal(err)
	}
	if n > created+1 || n < 2 {
		t.Fatalf("pass reclaimed %d segments after %d were created", n, created)
	}

	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	if id, ok := db.vlog.PickGC(); ok {
		t.Fatalf("segment %d still qualifies after RunValueLogGC", id)
	}
	if got := db.ValueLogCounters().GCSegmentsReclaimed; got != int64(dead) {
		t.Fatalf("%d segments reclaimed in all, %d were dead", got, dead)
	}
	for i := 0; i < 30; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("live%03d", i)))
		if err != nil || string(v) != string(bigVal("live", 1<<10)) {
			t.Fatalf("live%03d after GC: err=%v", i, err)
		}
	}
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
