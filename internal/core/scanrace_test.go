package core

import (
	"fmt"
	"testing"
)

// TestScanDuringCompactionComplete: a scan racing the background
// flush/merge/absorb pipeline must still observe every committed key
// exactly once. This is the regression test for the migration-teleport
// bug: an iterator chasing raw node pointers through a table under
// zero-copy merge could follow a migrated node's rewritten tower into the
// other list and silently skip the rest of the first one — Get (seqlock
// protected) saw the keys, Scan intermittently did not. The safe re-seek
// iterators (pmtable.SafeIterator) close the race; this test replays the
// workload shape that exposed it, many times, with small memtables so
// scans overlap heavy structural churn.
func TestScanDuringCompactionComplete(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		db := mustOpen(t, burstOpts())
		value := make([]byte, 128)
		want := map[string]bool{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%05d", i)
			if err := db.Put([]byte(k), value); err != nil {
				t.Fatal(err)
			}
			want[k] = true
			if i%7 == 0 {
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				want[k] = false
			}
		}
		// Scan immediately: flushes, zero-copy merges, and lazy absorbs
		// from the load above are still in flight.
		got := scanAll(t, db)
		for k, alive := range want {
			_, inScan := got[k]
			if alive && !inScan {
				_, gerr := db.Get([]byte(k))
				t.Errorf("iter %d: key %s missing from scan (Get err=%v)", iter, k, gerr)
			}
			if !alive && inScan {
				t.Errorf("iter %d: deleted key %s visible in scan", iter, k)
			}
		}
		db.Close()
		if t.Failed() {
			return
		}
	}
}

func scanAll(t *testing.T, db *DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := db.Scan(nil, 0, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
