package core

import (
	"fmt"
	"testing"

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
		ptr, seq, kind, ok := re.rawNewest(v, []byte(k))
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
