package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/jobs"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/stats"
	"miodb/internal/vaddr"
	"miodb/internal/vfs"
)

// tree is a Levels on a job table of its own, as an owner would hold it:
// the compaction job on its own runner.
type tree struct {
	*Levels
	ownerMu sync.Mutex
	bg      *jobs.Table
}

// newTree opens a tree and starts its compaction runner.
func newTree(t testing.TB, opts Options) *tree {
	t.Helper()
	tr := &tree{}
	tr.bg = jobs.New(&tr.ownerMu, nil)
	tr.Levels = New(opts, tr.bg)
	tr.bg.Start([]*jobs.Job{tr.Compaction()})
	return tr
}

// FlushToL0 installs as an owner's job does: the broadcast under the
// owner's lock afterwards wakes the compaction runner.
func (tr *tree) FlushToL0(it iterx.Iterator, maxBytes int64) error {
	err := tr.Levels.FlushToL0(it, maxBytes)
	tr.ownerMu.Lock()
	tr.bg.Broadcast()
	tr.ownerMu.Unlock()
	return err
}

// WaitIdle blocks until no compaction is needed or running.
func (tr *tree) WaitIdle() {
	tr.ownerMu.Lock()
	tr.bg.WaitIdle()
	tr.ownerMu.Unlock()
}

// Close drains the ready compactions and stops the runner.
func (tr *tree) Close() { tr.bg.Close() }

func testOptions(st *stats.Recorder) Options {
	return Options{
		Disk:      vfs.NewDisk(vfs.NVMBlockProfile()),
		Stats:     st,
		TableSize: 8 << 10, // small tables to force deep trees quickly
		L1Size:    32 << 10,
		Fanout:    10,
		NumLevels: 5,
	}
}

// memIter builds a memtable-backed iterator with the given entries.
func memIter(t testing.TB, kvs map[string]string, seqBase uint64) iterx.Iterator {
	t.Helper()
	dram := nvm.NewDevice(vaddr.NewSpace(), nvm.DRAMProfile())
	mt, err := memtable.New(dram, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	seq := seqBase
	for k, v := range kvs {
		kind := keys.KindSet
		if v == "<del>" {
			kind = keys.KindDelete
			v = ""
		}
		if err := mt.Add([]byte(k), []byte(v), seq, kind); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	return mt.NewIterator()
}

func TestFlushAndGet(t *testing.T) {
	st := &stats.Recorder{}
	l := newTree(t, testOptions(st))
	defer l.Close()
	kvs := map[string]string{}
	for i := 0; i < 200; i++ {
		kvs[fmt.Sprintf("key-%04d", i)] = fmt.Sprintf("val-%04d", i)
	}
	if err := l.FlushToL0(memIter(t, kvs, 1), 0); err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		got, _, _, ok := l.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q ok=%v", k, got, ok)
		}
	}
	if _, _, _, ok := l.Get([]byte("missing")); ok {
		t.Error("found missing key")
	}
}

func TestCompactionReducesL0AndPreservesData(t *testing.T) {
	st := &stats.Recorder{}
	l := newTree(t, testOptions(st))
	defer l.Close()
	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(7))
	seq := uint64(1)
	for flush := 0; flush < 12; flush++ {
		kvs := map[string]string{}
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("key-%05d", rnd.Intn(800))
			v := fmt.Sprintf("val-%d-%d", flush, i)
			kvs[k] = v
			golden[k] = v
		}
		if err := l.FlushToL0(memIter(t, kvs, seq), 0); err != nil {
			t.Fatal(err)
		}
		seq += 1000
	}
	l.WaitIdle()
	if n := l.L0Count(); n >= l.opts.L0Slowdown {
		t.Errorf("L0 still has %d tables after WaitIdle", n)
	}
	for k, v := range golden {
		got, _, _, ok := l.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("after compaction Get(%s) = %q ok=%v, want %q", k, got, ok, v)
		}
	}
	// Compaction must have produced rewrite traffic (write amplification).
	snap := st.Snapshot()
	if snap.Compactions == 0 {
		t.Error("no compactions ran")
	}
	sizes := l.LevelSizes()
	deeper := int64(0)
	for _, s := range sizes[1:] {
		deeper += s
	}
	if deeper == 0 {
		t.Error("no data reached levels below L0")
	}
}

func TestTombstonesShadowAndDropAtBottom(t *testing.T) {
	st := &stats.Recorder{}
	l := newTree(t, testOptions(st))
	defer l.Close()
	base := map[string]string{}
	for i := 0; i < 100; i++ {
		base[fmt.Sprintf("key-%03d", i)] = "v"
	}
	if err := l.FlushToL0(memIter(t, base, 1), 0); err != nil {
		t.Fatal(err)
	}
	dels := map[string]string{}
	for i := 0; i < 100; i += 2 {
		dels[fmt.Sprintf("key-%03d", i)] = "<del>"
	}
	if err := l.FlushToL0(memIter(t, dels, 1000), 0); err != nil {
		t.Fatal(err)
	}
	// Tombstones must shadow older values immediately.
	_, _, kind, ok := l.Get([]byte("key-000"))
	if !ok || kind != keys.KindDelete {
		t.Fatalf("Get(key-000): kind=%d ok=%v, want tombstone", kind, ok)
	}
	if v, _, kind, ok := l.Get([]byte("key-001")); !ok || kind != keys.KindSet || string(v) != "v" {
		t.Fatal("undeleted key broken")
	}
}

func TestMergingScanAcrossLevels(t *testing.T) {
	st := &stats.Recorder{}
	l := newTree(t, testOptions(st))
	defer l.Close()
	golden := map[string]string{}
	seq := uint64(1)
	for flush := 0; flush < 8; flush++ {
		kvs := map[string]string{}
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key-%05d", (flush*53+i*11)%500)
			kvs[k] = fmt.Sprintf("v-%d-%d", flush, i)
		}
		if err := l.FlushToL0(memIter(t, kvs, seq), 0); err != nil {
			t.Fatal(err)
		}
		seq += 1000
		for k, v := range kvs {
			golden[k] = v
		}
	}
	l.WaitIdle()
	scan := iterx.NewVisible(iterx.NewMerging(l.Iterators()...))
	seen := map[string]string{}
	var prev string
	for scan.SeekToFirst(); scan.Valid(); scan.Next() {
		k := string(scan.Key())
		if prev != "" && k <= prev {
			t.Fatalf("scan out of order: %q after %q", k, prev)
		}
		prev = k
		seen[k] = string(scan.Value())
	}
	if len(seen) != len(golden) {
		t.Fatalf("scan saw %d keys, want %d", len(seen), len(golden))
	}
	for k, v := range golden {
		if seen[k] != v {
			t.Fatalf("scan[%s] = %q, want %q", k, seen[k], v)
		}
	}
}

func TestWriteDelaySignals(t *testing.T) {
	// Levels with compaction effectively stalled (we never wait) —
	// directly exercise the threshold logic by stuffing L0.
	st := &stats.Recorder{}
	opts := testOptions(st)
	opts.L0Slowdown = 2
	opts.L0Stop = 4
	l := newTree(t, opts)
	defer l.Close()

	if sleep, block := l.WriteDelay(); sleep != 0 || block {
		t.Error("fresh tree should not throttle")
	}
	seq := uint64(1)
	for i := 0; i < 6; i++ {
		kvs := map[string]string{fmt.Sprintf("k%d", i): "v"}
		if err := l.FlushToL0(memIter(t, kvs, seq), 0); err != nil {
			t.Fatal(err)
		}
		seq += 10
	}
	// Depending on compaction progress L0 may already have drained; force
	// the check loop to observe a drained tree eventually.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, block := l.WriteDelay(); !block {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("L0 never drained below stop threshold")
		}
		time.Sleep(time.Millisecond)
	}
	l.WaitIdle()
}

func TestLevelSizeCapsRespectedEventually(t *testing.T) {
	st := &stats.Recorder{}
	opts := testOptions(st)
	l := newTree(t, opts)
	defer l.Close()
	seq := uint64(1)
	rnd := rand.New(rand.NewSource(3))
	for flush := 0; flush < 20; flush++ {
		kvs := map[string]string{}
		for i := 0; i < 200; i++ {
			kvs[fmt.Sprintf("key-%06d", rnd.Intn(5000))] = fmt.Sprintf("%0128d", i)
		}
		if err := l.FlushToL0(memIter(t, kvs, seq), 0); err != nil {
			t.Fatal(err)
		}
		seq += 1000
	}
	l.WaitIdle()
	sizes := l.LevelSizes()
	for level := 1; level < len(sizes)-1; level++ {
		if sizes[level] > 2*l.maxLevelBytes(level) {
			t.Errorf("level %d size %d far exceeds cap %d", level, sizes[level], l.maxLevelBytes(level))
		}
	}
}
