package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/nvm"
)

// testOpts forces frequent flushes and merges so short tests push data
// through every shard's full pipeline, matching the core suite's idiom.
func testOpts() core.Options {
	return core.Options{
		MemTableSize:   8 << 10,
		ChunkSize:      32 << 10,
		Levels:         4,
		FilterCapacity: 1 << 12,
	}
}

func mustRouter(t testing.TB, n int, opts core.Options) *Router {
	t.Helper()
	r, err := Open(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOpenRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := Open(n, testOpts()); err == nil {
			t.Errorf("Open(%d) accepted", n)
		}
	}
}

// TestOracleAgainstSingleEngine drives one randomized workload — puts,
// deletes, and cross-shard batches — into a 4-shard router and a
// single engine, then requires the two to be observationally identical:
// the merged iterator must yield the exact key/value stream the single
// engine does, point lookups must agree, and Seek must land both on the
// same key. The single engine is the oracle: sharding is pure routing
// and must never change what the store contains.
func TestOracleAgainstSingleEngine(t *testing.T) {
	r := mustRouter(t, 4, testOpts())
	defer r.Close()
	oracle, err := core.Open(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	rng := rand.New(rand.NewSource(7))
	const keyspace = 600
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("k%04d", rng.Intn(keyspace)))
		switch rng.Intn(10) {
		case 0: // delete
			if err := r.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Delete(k); err != nil {
				t.Fatal(err)
			}
		case 1, 2: // cross-shard batch
			rb, ob := &core.Batch{}, &core.Batch{}
			for j := 0; j < 1+rng.Intn(6); j++ {
				bk := []byte(fmt.Sprintf("k%04d", rng.Intn(keyspace)))
				bv := []byte(fmt.Sprintf("b%d-%d", i, j))
				rb.Put(bk, bv)
				ob.Put(bk, bv)
			}
			if err := r.Write(rb); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Write(ob); err != nil {
				t.Fatal(err)
			}
		default:
			v := []byte(fmt.Sprintf("v%d", i))
			if err := r.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Full-stream comparison through the merged iterator.
	ri, oi := r.NewIterator(), oracle.NewIterator()
	defer ri.Close()
	defer oi.Close()
	n := 0
	ri.SeekToFirst()
	for oi.SeekToFirst(); oi.Valid(); oi.Next() {
		if !ri.Valid() {
			t.Fatalf("merged iterator ended at %d keys; oracle still at %q", n, oi.Key())
		}
		if string(ri.Key()) != string(oi.Key()) || string(ri.Value()) != string(oi.Value()) {
			t.Fatalf("key %d: merged %q=%q, oracle %q=%q", n, ri.Key(), ri.Value(), oi.Key(), oi.Value())
		}
		ri.Next()
		n++
	}
	if ri.Valid() {
		t.Fatalf("merged iterator has extra key %q past oracle's %d", ri.Key(), n)
	}
	if n == 0 {
		t.Fatal("oracle stream empty")
	}

	// Seek and point-lookup agreement on random probes.
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%04d", rng.Intn(keyspace+50)))
		ri.Seek(k)
		oi.Seek(k)
		if ri.Valid() != oi.Valid() {
			t.Fatalf("Seek(%q): merged valid=%v, oracle valid=%v", k, ri.Valid(), oi.Valid())
		}
		if ri.Valid() && string(ri.Key()) != string(oi.Key()) {
			t.Fatalf("Seek(%q): merged at %q, oracle at %q", k, ri.Key(), oi.Key())
		}
		rv, rerr := r.Get(k)
		ov, oerr := oracle.Get(k)
		if !errors.Is(rerr, oerr) && rerr != oerr {
			t.Fatalf("Get(%q): merged err %v, oracle err %v", k, rerr, oerr)
		}
		if string(rv) != string(ov) {
			t.Fatalf("Get(%q): merged %q, oracle %q", k, rv, ov)
		}
	}
}

// TestRoutingStable pins the routing contract: the shard a key maps to
// is a pure function of its bytes, the key actually lives on that shard
// and no other, and every shard receives some of a uniform workload.
func TestRoutingStable(t *testing.T) {
	r := mustRouter(t, 4, testOpts())
	defer r.Close()
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("route%04d", i))
		if err := r.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		home := r.ShardFor(k)
		if again := r.ShardFor(k); again != home {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", k, home, again)
		}
		for s := 0; s < r.NumShards(); s++ {
			_, err := r.Shard(s).Get(k)
			if s == home && err != nil {
				t.Fatalf("key %q missing from its home shard %d: %v", k, home, err)
			}
			if s != home && err != core.ErrNotFound {
				t.Fatalf("key %q leaked onto shard %d (home %d): %v", k, s, home, err)
			}
		}
	}
	st := r.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Stats().Shards len = %d", len(st.Shards))
	}
	var sum int64
	for i, s := range st.Shards {
		if s.Puts == 0 {
			t.Errorf("shard %d received no puts from a uniform workload", i)
		}
		sum += s.Puts
	}
	if sum != st.Puts || st.Puts != 400 {
		t.Errorf("aggregated puts %d, per-shard sum %d, want 400", st.Puts, sum)
	}
}

// TestBatchRejectedBeforeAnyShard: an invalid batch (empty key) must
// apply nowhere — not even the valid operations that precede it.
func TestBatchRejectedBeforeAnyShard(t *testing.T) {
	r := mustRouter(t, 4, testOpts())
	defer r.Close()
	b := &core.Batch{}
	b.Put([]byte("good-1"), []byte("v"))
	b.Put([]byte("good-2"), []byte("v"))
	b.Put(nil, []byte("v"))
	if err := r.Write(b); err == nil {
		t.Fatal("batch with empty key accepted")
	}
	for _, k := range []string{"good-1", "good-2"} {
		if _, err := r.Get([]byte(k)); err != core.ErrNotFound {
			t.Errorf("key %q applied from a rejected batch: %v", k, err)
		}
	}
}

// TestCheckpointRestore round-trips a sharded store through its image
// file and pins the format's validation: the recorded shard count is
// adopted when the caller passes 0, enforced when the caller passes a
// count, and a single-engine image is refused with a pointer to the
// right entry point.
func TestCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.img")
	r := mustRouter(t, 3, testOpts())
	want := map[string]string{}
	for i := 0; i < 700; i++ {
		k, v := fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i)
		if err := r.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 700; i += 7 {
		k := fmt.Sprintf("k%04d", i)
		if err := r.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if err := r.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	count, sharded, err := ImageInfo(path)
	if err != nil || !sharded || count != 3 {
		t.Fatalf("ImageInfo = %d, %v, %v; want 3, true, nil", count, sharded, err)
	}

	// Mismatched count refused; 0 adopts the recorded count.
	if _, err := OpenImage(path, 2, testOpts()); err == nil || !strings.Contains(err.Error(), "shard-count mismatch") {
		t.Fatalf("mismatched count: err = %v", err)
	}
	re, err := OpenImage(path, 0, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 3 {
		t.Fatalf("restored NumShards = %d", re.NumShards())
	}
	got := 0
	var last string
	err = re.Scan(nil, 0, func(k, v []byte) bool {
		if w, ok := want[string(k)]; !ok || w != string(v) {
			t.Fatalf("restored %q=%q, want %q", k, v, w)
		}
		if string(k) <= last && last != "" {
			t.Fatalf("restored scan out of order: %q after %q", k, last)
		}
		last = string(k)
		got++
		return true
	})
	if err != nil || got != len(want) {
		t.Fatalf("restored scan: %d keys, err %v; want %d", got, err, len(want))
	}

	// A single-engine core image must be sniffed as unsharded and
	// refused by the sharded opener.
	single := filepath.Join(dir, "single.img")
	db, err := core.Open(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if err := db.Checkpoint(single); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, sharded, err := ImageInfo(single); err != nil || sharded {
		t.Fatalf("ImageInfo(single) = sharded=%v, %v", sharded, err)
	}
	if _, err := OpenImage(single, 0, testOpts()); err == nil {
		t.Fatal("sharded OpenImage accepted a single-engine image")
	}

	// Truncated files sniff clean (not sharded) rather than erroring.
	short := filepath.Join(dir, "short.img")
	if err := os.WriteFile(short, []byte("Mio"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, sharded, err := ImageInfo(short); err != nil || sharded {
		t.Fatalf("ImageInfo(short) = sharded=%v, %v", sharded, err)
	}
}

// TestErrLatchesFirstShardFailure degrades one shard with persistent
// device faults and requires: Err wraps ErrDegraded and stays stable,
// writes routed to the degraded shard are refused, and healthy shards
// keep accepting writes for their slice of the keyspace.
func TestErrLatchesFirstShardFailure(t *testing.T) {
	r := mustRouter(t, 2, testOpts())
	defer r.Close()
	for i := 0; i < 200; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 0
	_, dev := r.Shard(victim).Devices()
	dev.SetFaultPlan(nvm.NewFaultPlan(3).FailWritesEvery(1))
	if err := r.Shard(victim).FlushAll(); err == nil {
		t.Fatal("FlushAll succeeded with every device write failing")
	}
	r.WaitIdle()

	err := r.Err()
	if err == nil || !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("Err() = %v, want ErrDegraded wrap", err)
	}
	if again := r.Err(); again != err {
		t.Fatalf("Err() unstable: %v then %v", err, again)
	}
	dev.SetFaultPlan(nil)

	// Route fresh keys to each shard: the victim refuses, the healthy
	// shard keeps serving its slice.
	victimOK, healthyOK := false, false
	for i := 0; i < 64 && !(victimOK && healthyOK); i++ {
		k := []byte(fmt.Sprintf("post%04d", i))
		werr := r.Put(k, []byte("v"))
		if r.ShardFor(k) == victim {
			if !errors.Is(werr, core.ErrDegraded) {
				t.Fatalf("Put on degraded shard: %v, want ErrDegraded", werr)
			}
			victimOK = true
		} else {
			if werr != nil {
				t.Fatalf("Put on healthy shard failed: %v", werr)
			}
			healthyOK = true
		}
	}
	if !victimOK || !healthyOK {
		t.Fatal("probe keys never covered both shards")
	}
}

// TestIteratorAfterShardClose: an iterator opened once any shard is
// closed must surface ErrClosed rather than a partial merge.
func TestIteratorAfterShardClose(t *testing.T) {
	r := mustRouter(t, 2, testOpts())
	r.Put([]byte("a"), []byte("1"))
	r.Shard(0).Close()
	it := r.NewIterator()
	if it.Err() == nil {
		t.Error("iterator over a half-closed router reports no error")
	}
	it.Close()
	r.Shard(1).Close()
}

// TestScanSurfacesShardReadError: a value-log read that fails on one
// shard in the middle of a sharded scan reaches the caller, as it does
// through core.DB.Scan — from Router.Scan, from Snapshot.Scan, and from
// the merged Iterator's Err.
func TestScanSurfacesShardReadError(t *testing.T) {
	opts := testOpts()
	opts.ValueLog = &core.ValueLogOptions{Threshold: 32}
	r, err := Open(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if err := r.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(strings.Repeat("v", 64))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	seen := 0
	if err := r.Scan(nil, 0, func(k, v []byte) bool { seen++; return true }); err != nil || seen != n {
		t.Fatalf("healthy scan: %d keys, err %v", seen, err)
	}

	_, dev := r.Shard(2).Devices()
	dev.SetFaultPlan(nvm.NewFaultPlan(1).FailReadsEvery(1))
	defer dev.SetFaultPlan(nil)

	all := func(k, v []byte) bool { return true }
	if err := r.Scan(nil, 0, all); !errors.Is(err, kvstore.ErrValueLogCorrupt) {
		t.Errorf("Router.Scan with a failing shard read returned %v; want ErrValueLogCorrupt", err)
	}
	if err := snap.Scan(nil, 0, all); !errors.Is(err, kvstore.ErrValueLogCorrupt) {
		t.Errorf("Snapshot.Scan with a failing shard read returned %v; want ErrValueLogCorrupt", err)
	}
	it := r.NewIterator()
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		_ = it.Value()
	}
	if err := it.Err(); !errors.Is(err, kvstore.ErrValueLogCorrupt) {
		t.Errorf("Iterator.Err after a failing shard read = %v; want ErrValueLogCorrupt", err)
	}
}
