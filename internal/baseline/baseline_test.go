// Package baseline_test drives all three baseline stores through the
// shared kvstore.Store interface with a common model-based suite, plus
// per-store behavioural checks (stalls, container mechanics).
package baseline_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"miodb/internal/baseline/leveldbkv"
	"miodb/internal/baseline/matrixkv"
	"miodb/internal/baseline/novelsm"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
)

func smallLSM() lsm.Options {
	return lsm.Options{TableSize: 8 << 10, L1Size: 32 << 10, NumLevels: 5}
}

type factory struct {
	name string
	open func(t *testing.T) kvstore.Store
}

func factories() []factory {
	return []factory{
		{"leveldb", func(t *testing.T) kvstore.Store {
			db, err := leveldbkv.Open(leveldbkv.Options{MemTableSize: 8 << 10, LSM: smallLSM()})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"novelsm", func(t *testing.T) kvstore.Store {
			db, err := novelsm.Open(novelsm.Options{
				MemTableSize: 8 << 10, NVMBufferSize: 64 << 10, LSM: smallLSM(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"novelsm-nosst", func(t *testing.T) kvstore.Store {
			db, err := novelsm.Open(novelsm.Options{
				MemTableSize: 8 << 10, NVMBufferSize: 64 << 10, NoSST: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"novelsm-hier", func(t *testing.T) kvstore.Store {
			db, err := novelsm.Open(novelsm.Options{
				MemTableSize: 8 << 10, NVMBufferSize: 64 << 10, Hierarchical: true, LSM: smallLSM(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"matrixkv", func(t *testing.T) kvstore.Store {
			db, err := matrixkv.Open(matrixkv.Options{
				MemTableSize: 8 << 10, NVMBufferSize: 64 << 10, LSM: smallLSM(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
	}
}

func TestModelEquivalenceAllStores(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			db := f.open(t)
			defer db.Close()
			golden := map[string]string{}
			rnd := rand.New(rand.NewSource(42))
			for i := 0; i < 4000; i++ {
				k := fmt.Sprintf("key-%05d", rnd.Intn(1200))
				v := fmt.Sprintf("val-%d", i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				golden[k] = v
				if i%19 == 0 {
					dk := fmt.Sprintf("key-%05d", rnd.Intn(1200))
					if err := db.Delete([]byte(dk)); err != nil {
						t.Fatal(err)
					}
					delete(golden, dk)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			missing, wrong := 0, 0
			for k, v := range golden {
				got, err := db.Get([]byte(k))
				if err != nil {
					missing++
					continue
				}
				if string(got) != v {
					wrong++
				}
			}
			if missing > 0 || wrong > 0 {
				t.Fatalf("%d missing, %d wrong of %d", missing, wrong, len(golden))
			}
			// Deleted keys stay dead.
			probeDel := 0
			for i := 0; i < 1200; i++ {
				k := fmt.Sprintf("key-%05d", i)
				if _, present := golden[k]; present {
					continue
				}
				if _, err := db.Get([]byte(k)); err == nil {
					probeDel++
				}
			}
			if probeDel > 0 {
				t.Fatalf("%d absent keys resurrected", probeDel)
			}
			// Full scan matches the model.
			seen := map[string]string{}
			var prev []byte
			err := db.Scan(nil, 0, func(k, v []byte) bool {
				if prev != nil && bytes.Compare(k, prev) <= 0 {
					t.Fatalf("scan out of order at %q", k)
				}
				prev = append(prev[:0], k...)
				seen[string(k)] = string(v)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(golden) {
				t.Fatalf("scan saw %d keys, want %d", len(seen), len(golden))
			}
			for k, v := range golden {
				if seen[k] != v {
					t.Fatalf("scan[%s] = %q, want %q", k, seen[k], v)
				}
			}
		})
	}
}

func TestConcurrentReadersAllStores(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			db := f.open(t)
			defer db.Close()
			const nKeys = 300
			for i := 0; i < nKeys; i++ {
				db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v-init"))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errCh := make(chan error, 4)
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(int64(g)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := fmt.Sprintf("key-%04d", rnd.Intn(nKeys))
						v, err := db.Get([]byte(k))
						if err != nil || !bytes.HasPrefix(v, []byte("v-")) {
							select {
							case errCh <- fmt.Errorf("Get(%s) = %q, %v", k, v, err):
							default:
							}
							return
						}
					}
				}(g)
			}
			rnd := rand.New(rand.NewSource(7))
			for i := 0; i < 6000; i++ {
				k := fmt.Sprintf("key-%04d", rnd.Intn(nKeys))
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}
		})
	}
}

func TestLevelDBStallAccounting(t *testing.T) {
	// A tight LSM configuration must exhibit the classic stalls: slowdown
	// (cumulative) and/or blocking (interval) under sustained load.
	db, err := leveldbkv.Open(leveldbkv.Options{
		MemTableSize: 4 << 10,
		LSM:          lsm.Options{TableSize: 4 << 10, L1Size: 8 << 10, NumLevels: 4, L0Slowdown: 2, L0Stop: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	db.Flush()
	s := db.Stats()
	if s.CumulativeStall == 0 && s.IntervalStall == 0 {
		t.Error("classic LSM under pressure recorded no stalls at all")
	}
	if s.SerializeTime == 0 {
		t.Error("no serialization time recorded")
	}
	if s.WriteAmplification < 1.5 {
		t.Errorf("classic LSM WA = %.2f, expected compaction rewrite traffic", s.WriteAmplification)
	}
	t.Logf("leveldb: WA=%.2f cumStall=%v intStall=%v", s.WriteAmplification, s.CumulativeStall, s.IntervalStall)
}

func TestNoveLSMSpillsToSSTables(t *testing.T) {
	db, err := novelsm.Open(novelsm.Options{
		MemTableSize: 4 << 10, NVMBufferSize: 16 << 10, LSM: smallLSM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	golden := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", i%900)
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	db.Flush()
	for k, v := range golden {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	s := db.Stats()
	var diskWritten int64
	for _, d := range s.Devices {
		if d.Name == "nvm-block" {
			diskWritten = d.BytesWritten
		}
	}
	if diskWritten == 0 {
		t.Error("NVM memtable never spilled to SSTables")
	}
}

func TestNoveLSMNoSSTKeepsEverythingInSkipList(t *testing.T) {
	db, err := novelsm.Open(novelsm.Options{
		MemTableSize: 4 << 10, NVMBufferSize: 16 << 10, NoSST: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	s := db.Stats()
	if s.SerializeTime != 0 {
		t.Error("NoSST variant serialized something")
	}
	for _, i := range []int{0, 999, 1999} {
		v, err := db.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, err)
		}
	}
}

func TestMatrixKVColumnCompactionDrainsContainer(t *testing.T) {
	db, err := matrixkv.Open(matrixkv.Options{
		MemTableSize: 4 << 10, NVMBufferSize: 24 << 10, LSM: smallLSM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%05d", rnd.Intn(1500))
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	db.Flush()
	s := db.Stats()
	if s.Compactions == 0 {
		t.Error("no column compactions ran")
	}
	var diskWritten int64
	for _, d := range s.Devices {
		if d.Name == "nvm-block" {
			diskWritten = d.BytesWritten
		}
	}
	if diskWritten == 0 {
		t.Error("columns never reached L1")
	}
	for k, v := range golden {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	// Flush drains the column job: the container ends below its 60 %
	// soft watermark.
	if db.ContainerBytes() >= (24<<10)*6/10 {
		t.Errorf("container not drained below its watermark: %d live bytes", db.ContainerBytes())
	}
}

func TestNoveLSMHierarchicalVariant(t *testing.T) {
	db, err := novelsm.Open(novelsm.Options{
		MemTableSize: 4 << 10, NVMBufferSize: 16 << 10,
		Hierarchical: true, LSM: smallLSM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	golden := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", i%900)
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for k, v := range golden {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("hierarchical Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	// The staging tier must have spilled to SSTables (16 KB buffer vs
	// ~45 KB of data).
	s := db.Stats()
	var diskWritten int64
	for _, d := range s.Devices {
		if d.Name == "nvm-block" {
			diskWritten = d.BytesWritten
		}
	}
	if diskWritten == 0 {
		t.Error("hierarchical staging tier never spilled to SSTables")
	}
	// Scans cross all tiers.
	n := 0
	if err := db.Scan(nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(golden) {
		t.Fatalf("scan saw %d keys, want %d", n, len(golden))
	}
}

func TestCloseWhileWriterStalled(t *testing.T) {
	// A writer blocked in a stall must unblock when the store closes
	// concurrently, returning ErrClosed rather than deadlocking.
	db, err := novelsm.Open(novelsm.Options{
		MemTableSize: 4 << 10, NVMBufferSize: 8 << 10,
		LSM: lsm.Options{TableSize: 4 << 10, L1Size: 8 << 10, NumLevels: 3, L0Slowdown: 1, L0Stop: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var lastErr error
		for i := 0; i < 50000; i++ {
			if lastErr = db.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("v"), 512)); lastErr != nil {
				break
			}
		}
		done <- lastErr
	}()
	time.Sleep(50 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && err != kvstore.ErrClosed {
			t.Fatalf("writer returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer deadlocked across Close")
	}
}
