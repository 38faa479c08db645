package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// runConcurrentWriters hammers one DB from `writers` goroutines with a mix
// of single Puts, Deletes, and multi-op batches over disjoint key ranges,
// and returns the expected surviving key→value map plus the total record
// count (every Put/Delete/batch op consumes exactly one sequence number).
func runConcurrentWriters(t *testing.T, db *DB, writers, opsPer int) (map[string]string, int64) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	wants := make([]map[string]string, writers)
	var records int64
	var recordsMu sync.Mutex

	for g := 0; g < writers; g++ {
		wants[g] = make(map[string]string)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := wants[g]
			var n int64
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("w%d-k%04d", g, i%64) // overwrite within the range
				switch i % 8 {
				case 5: // delete an earlier key
					if err := db.Delete([]byte(k)); err != nil {
						errCh <- fmt.Errorf("writer %d delete: %w", g, err)
						return
					}
					delete(want, k)
					n++
				case 7: // batch of 4 consecutive keys
					var b Batch
					for j := 0; j < 4; j++ {
						bk := fmt.Sprintf("w%d-b%04d", g, (i+j)%64)
						bv := fmt.Sprintf("bv%d.%d.%d", g, i, j)
						b.Put([]byte(bk), []byte(bv))
						want[bk] = bv
					}
					if err := db.Write(&b); err != nil {
						errCh <- fmt.Errorf("writer %d batch: %w", g, err)
						return
					}
					n += 4
				default:
					v := fmt.Sprintf("v%d.%d", g, i)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						errCh <- fmt.Errorf("writer %d put: %w", g, err)
						return
					}
					want[k] = v
					n++
				}
			}
			recordsMu.Lock()
			records += n
			recordsMu.Unlock()
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	merged := make(map[string]string)
	for _, w := range wants {
		for k, v := range w {
			merged[k] = v
		}
	}
	return merged, records
}

func checkContents(t *testing.T, db *DB, want map[string]string, label string) {
	t.Helper()
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("%s: Get(%s) = %q, %v (want %q)", label, k, got, err, v)
		}
	}
}

// TestConcurrentWritersGroupCommit is the commit path's core correctness
// test under concurrency: 8 writers share one commit lock; afterwards the
// sequence space is dense (every record got exactly one number, none lost
// or duplicated), every acknowledged write is readable, the commit stats
// add up (one commit group per request), and after a simulated crash the
// WAL replays every acknowledged write.
//
// Run under -race: the commits, their inserts, and the background
// flusher all touch shared state.
func TestConcurrentWritersGroupCommit(t *testing.T) {
	db := mustOpen(t, smallOpts())

	const writers, opsPer = 8, 300
	want, records := runConcurrentWriters(t, db, writers, opsPer)

	if got := db.seq.Load(); int64(got) != records {
		t.Fatalf("sequence space not dense: last seq %d, %d records committed", got, records)
	}
	st := db.Stats()
	if st.Puts+st.Deletes != records {
		t.Fatalf("op counts %d+%d != %d records", st.Puts, st.Deletes, records)
	}
	if st.GroupedWrites != records {
		t.Fatalf("GroupedWrites = %d, want %d", st.GroupedWrites, records)
	}
	if st.WriteGroups <= 0 || st.WriteGroups > st.GroupedWrites {
		t.Fatalf("WriteGroups = %d (GroupedWrites = %d)", st.WriteGroups, st.GroupedWrites)
	}
	checkContents(t, db, want, "pre-crash")

	// Let flushing/compaction settle, then crash and recover: nothing that
	// was acknowledged may be lost.
	db.WaitIdle()
	img := db.CrashForTest()
	re, err := Recover(img, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.seq.Load(); int64(got) < records {
		t.Fatalf("recovered seq %d < %d committed records", got, records)
	}
	checkContents(t, re, want, "post-recovery")
}

// TestPutMatchesBatchOfOne pins the one commit body: the same record
// committed by Put and by a one-op Batch leaves identical WAL bytes,
// identical NVM writes and bytes written, and one commit group of one.
func TestPutMatchesBatchOfOne(t *testing.T) {
	type outcome struct {
		wal                 []byte
		nvmWrites, nvmBytes int64
		groups, grouped     int64
	}
	commit := func(batch bool) outcome {
		db := mustOpen(t, Options{MemTableSize: 1 << 20})
		defer db.Close()
		for i := 0; i < 5; i++ {
			if err := db.Put([]byte(fmt.Sprintf("prefix-%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		nc, st := db.nvm.Counters(), db.Stats()
		key, val := []byte("key"), []byte("odd-length") // framed in 34 B, padded to 40
		var err error
		if batch {
			var b Batch
			b.Put(key, val)
			err = db.Write(&b)
		} else {
			err = db.Put(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		nc2, st2 := db.nvm.Counters(), db.Stats()
		log := db.current.Load().mem.log.Region()
		return outcome{
			wal:       append([]byte(nil), log.Bytes(log.Base(), int(log.Size()))...),
			nvmWrites: nc2.Writes - nc.Writes,
			nvmBytes:  nc2.BytesWritten - nc.BytesWritten,
			groups:    st2.WriteGroups - st.WriteGroups,
			grouped:   st2.GroupedWrites - st.GroupedWrites,
		}
	}
	put, batch := commit(false), commit(true)
	if !bytes.Equal(put.wal, batch.wal) {
		t.Fatal("WAL region bytes differ between Put and a batch of one")
	}
	if put.nvmWrites != batch.nvmWrites || put.nvmBytes != batch.nvmBytes {
		t.Fatalf("NVM charge: Put %d writes / %d B, batch %d writes / %d B",
			put.nvmWrites, put.nvmBytes, batch.nvmWrites, batch.nvmBytes)
	}
	if put.groups != 1 || put.grouped != 1 || batch.groups != 1 || batch.grouped != 1 {
		t.Fatalf("group deltas: Put %d/%d, batch %d/%d, want 1/1",
			put.groups, put.grouped, batch.groups, batch.grouped)
	}
}
