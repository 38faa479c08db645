package wal

import (
	"fmt"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// TestAppendTornWritePoisonsLog: an injected crash that tears an append
// mid-record must (a) fail the append, (b) latch the log poisoned so no
// further append can write unrecoverable records behind the garbage, and
// (c) leave a replayable prefix with the torn tail discarded.
func TestAppendTornWritePoisonsLog(t *testing.T) {
	space := vaddr.NewSpace()
	dev := nvm.NewDevice(space, nvm.NVMProfile())
	l := New(dev, 1<<16)

	good := 0
	for i := 0; ; i++ {
		if i == 3 {
			// Arm a byte budget that tears the next append partway.
			dev.SetFaultPlan(nvm.NewFaultPlan(7).CrashAfterBytes(10).TornWrites())
		}
		err := l.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("value-payload"), uint64(i+1), keys.KindSet)
		if err != nil {
			break
		}
		good++
	}
	if good != 3 {
		t.Fatalf("acked %d appends before the injected crash, want 3", good)
	}
	if !l.Poisoned() {
		t.Fatal("log not poisoned after torn append")
	}
	if err := l.Append([]byte("after"), []byte("v"), 99, keys.KindSet); err == nil {
		t.Fatal("poisoned log accepted a further append")
	}

	dev.SetFaultPlan(nil)
	got, st := replayAllStats(t, Attach(dev, l.Region()))
	if len(got) != good {
		t.Fatalf("replayed %d records, want the %d acked ones", len(got), good)
	}
	if !st.TornTail {
		t.Error("replay did not flag the torn tail")
	}
}

// TestAppendLostWriteRetryable: a failed append that persisted nothing
// (torn = -1) must leave the log clean: the caller may retry and replay
// sees no damage.
func TestAppendLostWriteRetryable(t *testing.T) {
	dev := nvm.NewDevice(vaddr.NewSpace(), nvm.NVMProfile())
	l := New(dev, 1<<16)
	if err := l.Append([]byte("a"), []byte("1"), 1, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	// Probabilistic injection without TornWrites: failures lose the whole
	// write, never a prefix.
	dev.SetFaultPlan(nvm.NewFaultPlan(1).FailWritesEvery(1).AllTransient())
	if err := l.Append([]byte("b"), []byte("2"), 2, keys.KindSet); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if l.Poisoned() {
		t.Fatal("fully-lost append poisoned the log")
	}
	dev.SetFaultPlan(nil)
	if err := l.Append([]byte("b"), []byte("2"), 2, keys.KindSet); err != nil {
		t.Fatalf("retry after lost write failed: %v", err)
	}
	got, st := replayAllStats(t, Attach(dev, l.Region()))
	if len(got) != 2 || st.TornTail {
		t.Fatalf("replay got %d records (torn=%v), want 2 clean", len(got), st.TornTail)
	}
}

// TestBatchSerialTornEquivalence: under the same byte-budget crash
// trigger, the batched and serial append paths must tear at the same
// media offset and recover the same record prefix — the property that
// keeps batch commits crash-equivalent to serialized logging.
func TestBatchSerialTornEquivalence(t *testing.T) {
	mkRecs := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{
				Key:   []byte(fmt.Sprintf("key-%04d", i)),
				Value: []byte(fmt.Sprintf("value-%04d-%s", i, string(make([]byte, i%40)))),
				Seq:   uint64(i + 1),
				Kind:  keys.KindSet,
			}
		}
		return recs
	}

	for _, budget := range []int64{1, 33, 64, 200, 1000, 4000} {
		recs := mkRecs(100)

		run := func(batched bool) []rec {
			dev := nvm.NewDevice(vaddr.NewSpace(), nvm.NVMProfile())
			l := New(dev, 4096) // small chunks: straddle padding in play
			dev.SetFaultPlan(nvm.NewFaultPlan(42).CrashAfterBytes(budget).TornWrites())
			if batched {
				// Batch in groups of 7 until a group fails.
				for i := 0; i < len(recs); i += 7 {
					j := i + 7
					if j > len(recs) {
						j = len(recs)
					}
					if err := l.AppendBatch(recs[i:j]); err != nil {
						break
					}
				}
			} else {
				for _, r := range recs {
					if err := l.Append(r.Key, r.Value, r.Seq, r.Kind); err != nil {
						break
					}
				}
			}
			dev.SetFaultPlan(nil)
			return replayAll(t, Attach(dev, l.Region()))
		}

		serial := run(false)
		batched := run(true)

		// A batch run commits whole groups, so at the crash point the
		// batched log may be shorter by at most one group (the group the
		// serial path partially committed). Both must be prefixes of the
		// same record sequence, and the batched prefix must reach at
		// least the last full group before the serial tear.
		if len(batched) > len(serial) {
			t.Fatalf("budget %d: batched log recovered MORE records (%d) than serial (%d)",
				budget, len(batched), len(serial))
		}
		if serialFloor := len(serial) / 7 * 7; len(batched) < serialFloor {
			t.Fatalf("budget %d: batched recovered %d records, want at least %d (serial %d)",
				budget, len(batched), serialFloor, len(serial))
		}
		for i := range batched {
			if string(batched[i].key) != string(serial[i].key) || batched[i].seq != serial[i].seq {
				t.Fatalf("budget %d: record %d differs between batched and serial replay", budget, i)
			}
		}
	}
}
