package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/vlog"
)

// vlogOpts is smallOpts with key-value separation on: a low threshold and
// tiny segments so short tests create, fill, and reclaim many segments.
func vlogOpts() Options {
	o := smallOpts()
	o.ValueLog = &ValueLogOptions{Threshold: 256, SegmentSize: 8 << 10}
	return o
}

// bigVal builds a deterministic value of n bytes, tagged so misdirected
// reads fail loudly.
func bigVal(tag string, n int) []byte {
	v := make([]byte, n)
	copy(v, tag)
	for i := len(tag); i < n; i++ {
		v[i] = byte('a' + (i+len(tag))%23)
	}
	return v
}

func TestValueLogSeparatesLargeValues(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	small := []byte("tiny")
	large := bigVal("large-0", 4<<10)
	if err := db.Put([]byte("small"), small); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("large"), large); err != nil {
		t.Fatal(err)
	}

	c := db.ValueLogCounters()
	if c.Appends != 1 {
		t.Fatalf("vlog appends = %d, want exactly the one above-threshold value", c.Appends)
	}
	if v, err := db.Get([]byte("small")); err != nil || !bytes.Equal(v, small) {
		t.Fatalf("Get(small) = %q, %v", v, err)
	}
	if v, err := db.Get([]byte("large")); err != nil || !bytes.Equal(v, large) {
		t.Fatalf("Get(large) mismatch (err %v)", err)
	}

	// The resolved value must be a private copy, not an alias of NVM.
	v, _ := db.Get([]byte("large"))
	v[0] = 'X'
	if v2, _ := db.Get([]byte("large")); !bytes.Equal(v2, large) {
		t.Fatal("resolved value aliases log storage")
	}
}

func TestValueLogFullPipeline(t *testing.T) {
	// Enough separated values to force flushes, merges through every
	// level, and lazy copies — pointers must survive the whole pipeline
	// and resolve at every read surface.
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("key%04d", rnd.Intn(300))
		v := bigVal(k, 300+rnd.Intn(700))
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	db.WaitIdle()

	for k, want := range golden {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) err=%v len=%d want len=%d", k, err, len(v), len(want))
		}
	}

	// Iterator surface resolves too.
	seen := 0
	it := db.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if want, ok := golden[string(it.Key())]; !ok || string(it.Value()) != want {
			t.Fatalf("iterator mismatch at %q", it.Key())
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if seen != len(golden) {
		t.Fatalf("iterator saw %d keys, want %d", seen, len(golden))
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestValueLogGCReclaimsAndPreservesLiveValues(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	// Overwrite a small key set many times: every superseded pointer is
	// dead in the log, so segments cross the GC threshold as compaction
	// reports the drops.
	const keys = 20
	golden := map[string]string{}
	for round := 0; round < 30; round++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("gc%03d", i)
			v := bigVal(fmt.Sprintf("%s-r%d", k, round), 1<<10)
			if err := db.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			golden[k] = string(v)
		}
	}
	db.WaitIdle()

	// The background loop may already have reclaimed on compaction kicks;
	// the explicit run picks up any remaining candidates. Either way the
	// counters must show reclamation happened.
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	c := db.ValueLogCounters()
	if c.GCSegmentsReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing from a 30x-overwritten working set: %+v", c)
	}

	for k, want := range golden {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) after GC: err=%v", k, err)
		}
	}
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestResetCountersZeroesValueLogCounters(t *testing.T) {
	// ResetCounters opens a new bench phase: the value log's cumulative
	// counters start again from zero, while its segment gauge still
	// describes the log as it stands.
	db := mustOpen(t, vlogOpts())
	defer db.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("reset%03d", i)
		if err := db.Put([]byte(k), bigVal(k, 4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	before := db.Stats().ValueLog
	if before.Appends == 0 || before.Segments == 0 {
		t.Fatalf("no value-log activity to reset: %+v", before)
	}
	db.ResetCounters()
	after := db.Stats().ValueLog
	if after.Appends != 0 || after.AppendedBytes != 0 {
		t.Fatalf("after ResetCounters appends = %d, appended bytes = %d; want 0",
			after.Appends, after.AppendedBytes)
	}
	if after.Segments != before.Segments {
		t.Fatalf("ResetCounters changed the segment gauge: %d → %d", before.Segments, after.Segments)
	}
}

func TestValueLogGCRespectsSnapshots(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	k := []byte("pinned")
	v1 := bigVal("v1", 2<<10)
	if err := db.Put(k, v1); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Supersede v1 repeatedly so its segment becomes a GC candidate, then
	// force GC. The snapshot must keep reading v1 throughout: the segment
	// free is epoch-deferred past the pinned version.
	for i := 0; i < 40; i++ {
		if err := db.Put(k, bigVal(fmt.Sprintf("v%d", i+2), 2<<10)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	got, err := snap.Get(k)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("snapshot read after GC: err=%v (len %d, want %d)", err, len(got), len(v1))
	}
}

func TestValueLogCrashRecovery(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)

	golden := map[string]string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("rec%03d", i%40)
		v := bigVal(fmt.Sprintf("%s-i%d", k, i), 600)
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	// Exercise GC before the crash so freed segments are part of the
	// recovered state.
	db.WaitIdle()
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}

	img := db.CrashForTest()
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, want := range golden {
		v, err := re.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) after recovery: err=%v", k, err)
		}
	}
	// And the recovered store keeps working: new separated writes, GC.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("rec%03d", i%40)
		v := bigVal(fmt.Sprintf("%s-post%d", k, i), 600)
		if err := re.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	re.WaitIdle()
	if _, err := re.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	for k, want := range golden {
		v, err := re.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) after post-recovery writes: err=%v", k, err)
		}
	}
}

// TestValueLogAnnouncementFailsAfterSnapshot fails a new segment's
// manifest announcement after a snapshot rolled between the segment's
// install and the announcement, so the durable snapshot names the
// segment's region. The store must keep that region, and recovery must
// open the image with every acknowledged value.
func TestValueLogAnnouncementFailsAfterSnapshot(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	put := func(i int) error {
		k := fmt.Sprintf("ann%03d", i)
		v := bigVal(k, 600)
		err := db.Put([]byte(k), v)
		if err == nil {
			golden[k] = string(v)
		}
		return err
	}
	if err := put(0); err != nil {
		t.Fatal(err)
	}

	refused := errors.New("announcement refused")
	db.commitMu.Lock() // every value-log append runs under commitMu
	db.vlog.OnNewSegment = func(uint32, uint32) error {
		db.mu.Lock()
		err := db.writeManifestLocked()
		db.mu.Unlock()
		if err != nil {
			return err
		}
		return refused
	}
	db.commitMu.Unlock()
	for i := 1; ; i++ {
		err := put(i)
		if errors.Is(err, refused) {
			break
		}
		if err != nil || i == 100 {
			t.Fatalf("put %d: %v (want the announcement refused)", i, err)
		}
	}

	re, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, want := range golden {
		if v, err := re.Get([]byte(k)); err != nil || string(v) != want {
			t.Fatalf("Get(%s) after recovery: err=%v", k, err)
		}
	}
}

// TestValueLogSnapshotOmitsCondemnedSegment: a segment the collector has
// condemned is freed once the version chain drains, so a manifest
// snapshot rolled after the condemnation (every snapshotEvery edits, the
// free record itself can become one) must not name it; otherwise a crash
// after the free leaves the snapshot naming a released region.
func TestValueLogSnapshotOmitsCondemnedSegment(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("cond%03d", i)
		if err := db.Put([]byte(k), bigVal(k, 600)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	_, segs := db.vlog.SnapshotState()
	if len(segs) < 2 {
		t.Fatalf("%d segments, want at least 2", len(segs))
	}
	victim := segs[0].ID
	if !db.vlog.Condemn(victim) {
		t.Fatalf("segment %d could not be condemned", victim)
	}

	db.mu.Lock()
	err := db.writeManifestLocked()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	state, err := db.manifest.replay()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range state.vlogSegs {
		if g.id == victim {
			t.Fatalf("the snapshot names condemned segment %d", victim)
		}
	}
}

func TestValueLogRecoveryOptionMismatch(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)
	if err := db.Put([]byte("k"), bigVal("k", 2<<10)); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	img := db.CrashForTest()

	// Disabling separation over an image holding segments must refuse, not
	// serve dangling pointers.
	noVlog := opts
	noVlog.ValueLog = nil
	if _, err := Recover(img, noVlog); err == nil {
		t.Fatal("recovery with ValueLog disabled accepted an image holding segments")
	}
	if re, err := Recover(img, opts); err != nil {
		t.Fatal(err)
	} else {
		re.Close()
	}
}

// TestValueLogOnSSDRefusals: the SSD-resident value log is gone, so the
// deprecated OnSSD field is refused by the table's one error wherever a
// store comes into being — Open, and Recover of a real crash image.
func TestValueLogOnSSDRefusals(t *testing.T) {
	opts := vlogOpts()
	opts.ValueLog.OnSSD = true
	want := Refusal(OpOpen, opts, 1, false)
	if want == nil || Refusal(OpRecover, opts, 1, false) != want {
		t.Fatalf("the compatibility table refuses OnSSD with %v at Open; want one error at Open and Recover", want)
	}
	if db, err := Open(opts); err != want {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with OnSSD: err = %v, want %v", err, want)
	}
	db := mustOpen(t, vlogOpts())
	if err := db.Put([]byte("k"), bigVal("k", 4<<10)); err != nil {
		t.Fatal(err)
	}
	if re, err := Recover(db.CrashForTest(), opts); err != want {
		if err == nil {
			re.Close()
		}
		t.Fatalf("Recover with OnSSD: err = %v, want %v", err, want)
	}
}

func TestValueLogNilMatchesInline(t *testing.T) {
	// The nil-options arm must be byte-for-byte the inline engine. A store
	// with separation enabled but an unreachable threshold performs the
	// identical write-path work (no segment is ever created), so the NVM
	// write traffic must match exactly; and the nil arm must report no
	// value-log activity at all. The memtable is sized so nothing flushes:
	// background merge scheduling is timing-dependent, but the WAL and
	// manifest traffic the write path itself emits is deterministic.
	inert := func(o Options) Options {
		o.MemTableSize = 4 << 20
		return o
	}
	workload := func(db *DB) int64 {
		rnd := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%04d", rnd.Intn(200))
			if err := db.Put([]byte(k), bigVal(k, 512)); err != nil {
				panic(err)
			}
		}
		db.WaitIdle()
		s := db.Stats()
		for _, d := range s.Devices {
			if d.Name == "nvm" {
				return d.BytesWritten
			}
		}
		return -1
	}

	base := mustOpen(t, inert(smallOpts()))
	baseWritten := workload(base)
	if s := base.Stats(); s.ValueLog.Enabled || s.ValueLog.Appends != 0 {
		t.Fatalf("nil ValueLog reports activity: %+v", s.ValueLog)
	}
	if c := base.ValueLogCounters(); c != (vlog.Counters{}) {
		t.Fatalf("nil ValueLog counters non-zero: %+v", c)
	}
	base.Close()

	hi := inert(smallOpts())
	hi.ValueLog = &ValueLogOptions{Threshold: 1 << 30}
	sep := mustOpen(t, hi)
	sepWritten := workload(sep)
	if c := sep.ValueLogCounters(); c.Appends != 0 || c.Segments != 0 {
		t.Fatalf("unreachable threshold created segments: %+v", c)
	}
	sep.Close()

	if baseWritten != sepWritten {
		t.Fatalf("inline arm wrote %d NVM bytes, unreachable-threshold arm %d — separation is not inert",
			baseWritten, sepWritten)
	}
}
