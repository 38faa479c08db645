package core

import (
	"fmt"
	"testing"
	"time"

	"miodb/internal/keys"
)

// TestValueLogGCAfterReplayDuplicates pins the dead-mark trust rule
// (DESIGN.md §14). After a recovery the structure can hold one pointer
// record twice — WAL replay re-inserts a record a persisted table already
// carries, or an absorb cut short by the crash runs again over nodes the
// repository already has — and the merge that later drops one copy reports
// a dead address the surviving copy still names. A collector that took
// that report as proof would skip the entry, free the segment, and every
// Get of the key would fail with "pointer into unknown segment". Marks on
// recovered segments must stay advisory.
func TestValueLogGCAfterReplayDuplicates(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("dup%03d", i)
		v := bigVal(k, 600)
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}

	re, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Replay a stale log over the recovered store: every pointer record
	// again, under its original sequence number, the way Recover's WAL
	// replay inserts them.
	re.commitMu.Lock()
	v := re.current.Load()
	for k := range golden {
		ptr, seq, kind, ok := re.newest(v, []byte(k), keys.MaxSeq)
		if !ok || kind != keys.KindValuePtr {
			t.Fatalf("%s: newest entry is not a pointer (kind %v, found %v)", k, kind, ok)
		}
		mem := v.mem
		if err := mem.log.Append([]byte(k), ptr, seq, kind); err != nil {
			t.Fatal(err)
		}
		if err := mem.mt.Add([]byte(k), ptr, seq, kind); err != nil {
			t.Fatal(err)
		}
		if mem.minSeq == 0 || seq < mem.minSeq {
			mem.minSeq = seq
		}
		if seq > mem.maxSeq {
			mem.maxSeq = seq
		}
	}
	re.commitMu.Unlock()

	// Push the duplicates down until they meet the persisted copies: the
	// merge or absorb that unlinks one of each pair reports its address.
	before := re.ValueLogCounters()
	if err := re.FlushAll(); err != nil {
		t.Fatal(err)
	}
	after := re.ValueLogCounters()
	if after.LiveBytes >= before.LiveBytes {
		t.Fatalf("no drop was reported for a duplicated pointer (live bytes %d -> %d): the test no longer builds its scenario",
			before.LiveBytes, after.LiveBytes)
	}
	if _, ok := re.vlog.PickGC(); !ok {
		t.Fatal("no segment qualifies for GC after every entry was reported dropped")
	}

	for {
		n, err := re.RunValueLogGC()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	re.WaitIdle()
	for k, want := range golden {
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("Get(%s) after GC over duplicated pointers: err=%v", k, err)
		}
	}
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitIdleCoversValueLogGC pins ROADMAP item 1's failure mode (a): the
// value-log collector runs off its own kick channel, and idleLocked did not
// know it, so WaitIdle could return — and CrashForTest cut, and the
// structural checks run — with a pass queued or relocating ("version chain
// not drained; quiesce first"). A queued pass is on the books now: WaitIdle
// must not return before the pass has.
func TestWaitIdleCoversValueLogGC(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	// Fill a couple of segments and settle them into the repository.
	const n = 16
	key := func(i int) []byte { return []byte(fmt.Sprintf("idle%03d", i)) }
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

	// Supersede three quarters of them in the memtable — no flush, so no
	// merge runs and nothing kicks the collector — and report the old
	// pointers dropped, as the merge that meets them eventually will: the
	// first segments now qualify, each with live entries left to relocate.
	v := db.current.Load()
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			continue
		}
		old, _, kind, ok := db.newest(v, key(i), keys.MaxSeq)
		if !ok || kind != keys.KindValuePtr {
			t.Fatalf("%s: settled entry is not a pointer (kind %v, found %v)", key(i), kind, ok)
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
	before := db.ValueLogCounters().GCSegmentsReclaimed

	// Relocation commits under commitMu: holding it parks the pass midway.
	db.commitMu.Lock()
	db.mu.Lock()
	db.kickValueLogGCLocked()
	db.mu.Unlock()
	var reclaimedAtReturn int64
	done := make(chan struct{})
	go func() {
		db.WaitIdle()
		reclaimedAtReturn = db.ValueLogCounters().GCSegmentsReclaimed
		close(done)
	}()
	select {
	case <-done:
		db.commitMu.Unlock()
		t.Fatal("WaitIdle returned while the GC pass it should cover was parked on commitMu")
	case <-time.After(50 * time.Millisecond):
	}
	db.commitMu.Unlock()
	<-done
	if reclaimedAtReturn <= before {
		t.Fatalf("WaitIdle returned before the pass reclaimed anything (%d segments, %d before)", reclaimedAtReturn, before)
	}

	for k, want := range golden {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("Get(%s) after the pass: err=%v", k, err)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}
