package miodb

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"miodb/internal/core"
	"miodb/internal/kvstore"
)

// The public handle satisfies the repository-wide store contract, so it
// is drop-in usable anywhere the harness or server accepts a store.
var _ kvstore.Store = (*DB)(nil)

func TestPublicAPIRoundTrip(t *testing.T) {
	db, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user:%04d", i)), []byte(fmt.Sprintf("profile-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Get([]byte("user:0042"))
	if err != nil || string(v) != "profile-42" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Delete([]byte("user:0042")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("user:0042")); err != ErrNotFound {
		t.Fatalf("deleted key err = %v", err)
	}

	n := 0
	err = db.Scan([]byte("user:0100"), 50, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, []byte("user:")) {
			t.Errorf("unexpected key %q", k)
		}
		n++
		return true
	})
	if err != nil || n != 50 {
		t.Fatalf("Scan n=%d err=%v", n, err)
	}

	it := db.NewIterator()
	it.SeekToFirst()
	if !it.Valid() || string(it.Key()) != "user:0000" {
		t.Fatalf("iterator first = %q", it.Key())
	}
	it.Close()

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Puts != 500 || s.WriteAmplification <= 0 {
		t.Errorf("stats: puts=%d WA=%.2f", s.Puts, s.WriteAmplification)
	}
}

func TestPublicAPISSDMode(t *testing.T) {
	db, err := Open(&Options{UseSSD: true, MemTableSize: 8 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	for _, i := range []int{0, 999, 1999} {
		v, err := db.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, err)
		}
	}
}

func Example() {
	db, _ := Open(nil)
	defer db.Close()
	db.Put([]byte("greeting"), []byte("hello, hybrid memory"))
	v, _ := db.Get([]byte("greeting"))
	fmt.Println(string(v))
	// Output: hello, hybrid memory
}

func TestPublicCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/db.img"
	db, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := OpenImage(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v, err := re.Get([]byte("k0123"))
	if err != nil || string(v) != "v123" {
		t.Fatalf("restored Get = %q, %v", v, err)
	}
}

// TestOpenRejectsInvalidOptions pins the validation contract: invalid
// option values are refused with errors that name the offending field,
// zero values always mean "use the default", and OpenImage applies the
// same checks before it ever touches the image file.
func TestOpenRejectsInvalidOptions(t *testing.T) {
	cases := []struct {
		name string
		opts *Options
		want string // substring the error must carry
	}{
		{"negative-memtable", &Options{MemTableSize: -1}, "MemTableSize"},
		{"levels-below-range", &Options{Levels: 1}, "Levels"},
		{"levels-above-range", &Options{Levels: 65}, "Levels"},
		{"negative-timescale", &Options{TimeScale: -0.5}, "TimeScale"},
		{"negative-shards", &Options{Shards: -1}, "Shards"},
		{"too-many-shards", &Options{Shards: 1025}, "Shards"},
		{"negative-vlog-threshold", &Options{ValueLog: &ValueLogOptions{Threshold: -1}}, "ValueLog.Threshold"},
		{"negative-vlog-segment", &Options{ValueLog: &ValueLogOptions{SegmentSize: -1}}, "ValueLog.SegmentSize"},
		{"vlog-ratio-above-one", &Options{ValueLog: &ValueLogOptions{GCDeadRatio: 1.5}}, "ValueLog.GCDeadRatio"},
		{"vlog-ratio-negative", &Options{ValueLog: &ValueLogOptions{GCDeadRatio: -0.1}}, "ValueLog.GCDeadRatio"},
		{"disable-group-commit", &Options{DisableGroupCommit: true}, "DisableGroupCommit"},
		{"disable-epoch-reads", &Options{DisableEpochReads: true}, "DisableEpochReads"},
		{"admission", &Options{Admission: &AdmissionOptions{}}, "Admission"},
		{"nan-timescale", &Options{TimeScale: math.NaN()}, "TimeScale"},
		{"nan-vlog-ratio", &Options{ValueLog: &ValueLogOptions{GCDeadRatio: math.NaN()}}, "ValueLog.GCDeadRatio"},
		{"nan-governor-alpha", &Options{Shards: 2, Governor: &GovernorOptions{Alpha: math.NaN()}}, "Governor.Alpha"},
		{"nan-governor-hysteresis", &Options{Shards: 2, Governor: &GovernorOptions{HysteresisFrac: math.NaN()}}, "HysteresisFrac"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.opts); err == nil {
				t.Fatalf("Open accepted %+v", tc.opts)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open error %q does not name %s", err, tc.want)
			}
			// Same gate on the restore entry point, checked before the
			// path: a missing file must not mask the option error.
			if _, err := OpenImage("/nonexistent/img", tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("OpenImage error %v does not name %s", err, tc.want)
			}
		})
	}
	// Zero values stay valid: nil, the zero struct, and explicit zeros.
	for _, opts := range []*Options{nil, {}, {MemTableSize: 0, Levels: 0, TimeScale: 0, Shards: 0}} {
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("Open(%+v) = %v", opts, err)
		}
		db.Close()
	}
}

// TestOpenRefusesMemTableBelowFloor: a memtable under the engine's
// 4 KiB floor is refused whether it is given directly, split from
// MemoryBudget (down to a split that rounds to 0), or asked of a
// restore.
func TestOpenRefusesMemTableBelowFloor(t *testing.T) {
	for _, opts := range []*Options{
		{MemTableSize: 100},
		{MemTableSize: 100, Shards: 4},
		{MemoryBudget: 1000},
		{MemoryBudget: 1000, Shards: 8},
		{MemoryBudget: 7, Shards: 8},
	} {
		if db, err := Open(opts); err == nil {
			db.Close()
			t.Errorf("Open accepted %+v", opts)
		} else if !strings.Contains(err.Error(), "floor") {
			t.Errorf("Open(%+v) error %q does not name the floor", opts, err)
		}
	}
	path := t.TempDir() + "/floor.img"
	db, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if re, err := OpenImage(path, &Options{MemTableSize: 100}); err == nil {
		re.Close()
		t.Error("OpenImage accepted a 100 B memtable")
	}
}

// TestOpenImageHonorsUseSSD guards the once-dropped option: earlier
// versions silently ignored UseSSD on restore (and wrote NVM-only
// images of SSD stores whose repository data they could not carry).
// Both entry points now refuse descriptively instead of silently
// producing or restoring an incomplete configuration.
func TestOpenImageHonorsUseSSD(t *testing.T) {
	opts := &Options{UseSSD: true, MemTableSize: 8 << 10, Levels: 3}
	dir := t.TempDir()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// An SSD-mode store's repository lives on the simulated disk; an
	// NVM-only image of it would silently lose that data.
	if err := db.Checkpoint(dir + "/ssd.img"); err == nil || !strings.Contains(err.Error(), "SSD") {
		t.Fatalf("Checkpoint of SSD-mode store: err = %v, want SSD refusal", err)
	}

	// Restoring a (valid, non-SSD) image with UseSSD set must refuse
	// rather than drop the flag — the pre-fix behavior.
	path := dir + "/plain.img"
	plain, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	plain.Put([]byte("k"), []byte("v"))
	if err := plain.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	plain.Close()
	if _, err := OpenImage(path, &Options{UseSSD: true}); err == nil || !strings.Contains(err.Error(), "UseSSD") {
		t.Fatalf("OpenImage with UseSSD: err = %v, want descriptive refusal", err)
	}
	re, err := OpenImage(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, err := re.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("plain restore Get = %q, %v", v, err)
	}
}

// TestOpenRefusesGovernorWithoutShards: a Governor rebalances one budget
// across shards, so Open refuses it with fewer than two, naming it.
func TestOpenRefusesGovernorWithoutShards(t *testing.T) {
	for _, shards := range []int{0, 1} {
		if db, err := Open(&Options{Shards: shards, Governor: &GovernorOptions{}}); err == nil {
			db.Close()
			t.Errorf("Open accepted a Governor with Shards %d", shards)
		} else if !strings.Contains(err.Error(), "Governor") {
			t.Errorf("Shards %d: err = %v, want one naming Governor", shards, err)
		}
	}
}

// TestOpenRefusesValueLogOnSSD: the deprecated OnSSD field reaches the
// engine's one refusal whether the store opens as one engine or as
// shards, and so does a restore of a real image.
func TestOpenRefusesValueLogOnSSD(t *testing.T) {
	vl := &ValueLogOptions{OnSSD: true}
	want := core.Refusal(core.OpOpen, core.Options{ValueLog: vl}, 1, false)
	if want == nil {
		t.Fatal("the compatibility table does not refuse ValueLog.OnSSD")
	}
	for _, shards := range []int{0, 4} {
		if db, err := Open(&Options{Shards: shards, ValueLog: vl}); err != want {
			if err == nil {
				db.Close()
			}
			t.Errorf("Shards %d: Open err = %v, want %v", shards, err, want)
		}
	}
	path := t.TempDir() + "/plain.img"
	db, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("v"))
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if re, err := OpenImage(path, &Options{ValueLog: vl}); err != want {
		if err == nil {
			re.Close()
		}
		t.Errorf("OpenImage err = %v, want %v", err, want)
	}
}

// TestOpenImageKeepsMemoryBudget:OpenImage splits MemoryBudget across
// the restored shards exactly as Open does — a sharded image opened with
// Shards 0 takes the count from the image — and refuses a Governor
// rather than restoring an ungoverned store. Earlier versions dropped
// both options silently.
func TestOpenImageKeepsMemoryBudget(t *testing.T) {
	const budget = 1 << 20
	dir := t.TempDir()
	for _, shards := range []int{1, 4} {
		path := fmt.Sprintf("%s/budget-%d.img", dir, shards)
		db, err := Open(&Options{MemoryBudget: budget, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().MemTableTargetBytes; got != budget {
			t.Fatalf("%d shards: Open's memtable target = %d, want %d", shards, got, budget)
		}
		db.Put([]byte("k"), []byte("v"))
		if err := db.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		db.Close()
		for _, opts := range []*Options{{MemoryBudget: budget, Shards: shards}, {MemoryBudget: budget}} {
			re, err := OpenImage(path, opts)
			if err != nil {
				t.Fatalf("%d shards: OpenImage(%+v): %v", shards, opts, err)
			}
			if got := re.Stats().MemTableTargetBytes; got != budget {
				t.Errorf("%d shards: OpenImage(%+v) memtable target = %d, want %d", shards, opts, got, budget)
			}
			if v, err := re.Get([]byte("k")); err != nil || string(v) != "v" {
				t.Errorf("%d shards: restored Get = %q, %v", shards, v, err)
			}
			re.Close()
		}
	}

	governed := &Options{Shards: 2, Governor: &GovernorOptions{}}
	db, err := Open(governed)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/governed.img"
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if re, err := OpenImage(path, governed); err == nil {
		re.Close()
		t.Fatal("OpenImage accepted a Governor")
	} else if !strings.Contains(err.Error(), "Governor") {
		t.Fatalf("OpenImage with a Governor: err = %v, want one naming Governor", err)
	}
}

// TestShardedPublicAPI exercises Options.Shards end to end through the
// public surface: transparent routing, merged scans, aggregated stats
// with the per-shard breakdown, cross-shard batches, and the sharded
// checkpoint/restore path with its shard-count validation.
func TestShardedPublicAPI(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sharded.img"
	// Default structural options, so the nil-opts restore below matches
	// the checkpointed structure (OpenImage's documented contract).
	db, err := Open(&Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b := &Batch{}
	b.Put([]byte("batch-a"), []byte("1"))
	b.Put([]byte("batch-b"), []byte("2"))
	b.Delete([]byte("k0001"))
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k0001")); err != ErrNotFound {
		t.Fatalf("batched delete not applied: %v", err)
	}
	if v, err := db.Get([]byte("batch-b")); err != nil || string(v) != "2" {
		t.Fatalf("batched put = %q, %v", v, err)
	}

	// Merged scan is globally ordered across shards.
	var last string
	n := 0
	err = db.Scan([]byte("k"), 0, func(k, v []byte) bool {
		if last != "" && string(k) <= last {
			t.Fatalf("scan out of order: %q after %q", k, last)
		}
		last = string(k)
		n++
		return true
	})
	if err != nil || n != 599 {
		t.Fatalf("scan n=%d err=%v", n, err)
	}

	st := db.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Stats().Shards len = %d", len(st.Shards))
	}
	if st.Puts != 602 {
		t.Errorf("aggregated puts = %d, want 602", st.Puts)
	}

	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// nil options adopt the image's recorded shard count.
	re, err := OpenImage(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Stats().Shards); got != 4 {
		t.Fatalf("restored shard count = %d", got)
	}
	if v, err := re.Get([]byte("k0042")); err != nil || string(v) != "v42" {
		t.Fatalf("restored Get = %q, %v", v, err)
	}
	re.Close()

	// A mismatched count is refused; so is opening a single-engine
	// image with Shards > 1.
	if _, err := OpenImage(path, &Options{Shards: 2}); err == nil || !strings.Contains(err.Error(), "shard-count mismatch") {
		t.Fatalf("mismatched shard count: err = %v", err)
	}
	single := dir + "/single.img"
	sdb, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	sdb.Put([]byte("k"), []byte("v"))
	if err := sdb.Checkpoint(single); err != nil {
		t.Fatal(err)
	}
	sdb.Close()
	if _, err := OpenImage(single, &Options{Shards: 4}); err == nil || !strings.Contains(err.Error(), "shard-count mismatch") {
		t.Fatalf("single image with Shards=4: err = %v", err)
	}
}

// TestPublicValueLog exercises Options.ValueLog end to end through the
// public surface, single-engine and sharded: large values round-trip
// through the log, small ones stay inline, ValueLogEnabled answers
// correctly on both arms, and an explicit GC pass after a
// heavy overwrite succeeds while every key still reads back its newest
// value.
func TestPublicValueLog(t *testing.T) {
	big := func(tag string, n int) []byte {
		v := bytes.Repeat([]byte(tag+"|"), n/(len(tag)+1)+1)
		return v[:n]
	}
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"single", &Options{MemTableSize: 16 << 10, Levels: 3, ValueLog: &ValueLogOptions{Threshold: 256, SegmentSize: 16 << 10}}},
		{"sharded", &Options{Shards: 2, MemTableSize: 16 << 10, Levels: 3, ValueLog: &ValueLogOptions{Threshold: 256, SegmentSize: 16 << 10}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if !db.ValueLogEnabled() {
				t.Fatal("ValueLogEnabled() = false on a value-log store")
			}
			// Overwrite a small working set with large values many times so
			// early segments go mostly dead, plus inline-sized values to
			// cover the threshold split.
			for round := 0; round < 20; round++ {
				for i := 0; i < 16; i++ {
					k := []byte(fmt.Sprintf("big:%02d", i))
					if err := db.Put(k, big(fmt.Sprintf("r%d-i%d", round, i), 600)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 16; i++ {
				if err := db.Put([]byte(fmt.Sprintf("small:%02d", i)), []byte("inline")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.RunValueLogGC(); err != nil {
				t.Fatalf("RunValueLogGC: %v", err)
			}
			for i := 0; i < 16; i++ {
				k := []byte(fmt.Sprintf("big:%02d", i))
				want := big(fmt.Sprintf("r19-i%d", i), 600)
				if v, err := db.Get(k); err != nil || !bytes.Equal(v, want) {
					t.Fatalf("Get(%s) after GC = %d bytes, %v", k, len(v), err)
				}
				if v, err := db.Get([]byte(fmt.Sprintf("small:%02d", i))); err != nil || string(v) != "inline" {
					t.Fatalf("small Get = %q, %v", v, err)
				}
			}
			// Scans resolve pointers transparently too.
			n := 0
			err = db.Scan([]byte("big:"), 16, func(k, v []byte) bool {
				if len(v) != 600 {
					t.Fatalf("scan yielded %d-byte value for %q", len(v), k)
				}
				n++
				return true
			})
			if err != nil || n != 16 {
				t.Fatalf("scan n=%d err=%v", n, err)
			}
		})
	}
	// The nil arm answers the capability probe negatively and treats GC
	// as a no-op.
	plain, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.ValueLogEnabled() {
		t.Fatal("ValueLogEnabled() = true without Options.ValueLog")
	}
	if n, err := plain.RunValueLogGC(); n != 0 || err != nil {
		t.Fatalf("RunValueLogGC on plain store = %d, %v", n, err)
	}
}
