package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"miodb/internal/nvm"
)

// runnerLayouts are the two runner layouts, each with and without the
// value log (whose GC job adds a runner).
var runnerLayouts = []struct {
	name   string
	serial bool
	vlog   bool
}{
	{"parallel", false, false},
	{"parallel-vlog", false, true},
	{"serial", true, false},
	{"serial-vlog", true, true},
}

func runnerOpts(serial, withVlog bool) Options {
	o := smallOpts()
	if withVlog {
		o = vlogOpts()
	}
	o.DisableParallelCompaction = serial
	return o
}

// fillForRunners writes enough to queue flushes and merges at every level,
// half the values large enough for the value log when it is on.
func fillForRunners(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := []byte(fmt.Sprintf("v%06d", i))
		if i%2 == 0 {
			v = bigVal(string(v), 300)
		}
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i%900)), v); err != nil {
			t.Fatal(err)
		}
	}
}

// waitOrFail fails the test if wg does not drain within a generous bound.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: background runners still running", what)
	}
}

// TestRunnersStopOnDegradeAndCrash: every runner exits on the degraded
// latch without Close, and on the crash latch, in both runner layouts,
// with and without the value log.
func TestRunnersStopOnDegradeAndCrash(t *testing.T) {
	for _, l := range runnerLayouts {
		t.Run(l.name, func(t *testing.T) {
			opts := runnerOpts(l.serial, l.vlog)

			db := mustOpen(t, opts)
			fillForRunners(t, db, 3000)
			_, dev := db.Devices()
			dev.SetFaultPlan(nvm.NewFaultPlan(5).FailWritesEvery(1))
			if err := db.FlushAll(); err == nil {
				t.Fatal("FlushAll succeeded with every device write failing")
			}
			waitOrFail(t, &db.wg, "degraded")
			if db.Err() == nil {
				t.Fatal("runners stopped on a store that is not degraded")
			}
			dev.SetFaultPlan(nil)
			db.Close()

			// Crash with flushes queued behind a braked device: the runners
			// must drop them, as a power failure would, not drain them.
			// CrashForTest returns once db.wg has drained.
			db = mustOpen(t, opts)
			_, dev = db.Devices()
			dev.SetFaultPlan(nvm.NewFaultPlan(5).DelayWrites(4<<10, 100*time.Millisecond))
			fillForRunners(t, db, 3000)
			done := make(chan *CrashImage)
			go func() { done <- db.CrashForTest() }()
			var img *CrashImage
			select {
			case img = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("CrashForTest: background runners still running")
			}
			if len(db.current.Load().imms) == 0 {
				t.Fatal("CrashForTest drained every queued flush")
			}
			img.NVM.SetFaultPlan(nil)
			re, err := Recover(img, opts)
			if err != nil {
				t.Fatal(err)
			}
			re.WaitIdle()
			if err := re.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAblationSerialCompactionOneMergeInFlight: under
// DisableParallelCompaction one runner serves every merge job, so no two
// merges are ever in flight — sampled as merge entries in the installed
// version, which a merge holds from its pick to its install.
func TestAblationSerialCompactionOneMergeInFlight(t *testing.T) {
	db := mustOpen(t, runnerOpts(true, false))
	defer db.Close()

	stop := make(chan struct{})
	var most, seen, samples int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.mu.Lock()
			n := 0
			for _, lv := range db.current.Load().levels {
				for _, e := range lv {
					if _, ok := e.(mergeEntry); ok {
						n++
					}
				}
			}
			db.mu.Unlock()
			samples++
			if n > 0 {
				seen++
			}
			if n > most {
				most = n
			}
		}
	}()
	fillForRunners(t, db, 50000)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if most > 1 {
		t.Fatalf("%d merges in flight at once with parallel compaction disabled", most)
	}
	var merges int64
	db.mu.Lock()
	for _, lw := range db.levelStats[:len(db.levelStats)-1] {
		merges += lw.merges
	}
	db.mu.Unlock()
	if merges == 0 {
		t.Fatal("the fill ran no merge: the test no longer exercises the runner")
	}
	t.Logf("%d merges; %d of %d samples saw one in flight", merges, seen, samples)
}
