package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// compatCase is one configuration TestCompatibilityTable opens: engine
// options, and the two features that live above one engine.
type compatCase struct {
	opts     Options
	shards   int
	governed bool
}

// compatSetters turns on each compatibility-table row's feature. A row
// with no setter fails TestCompatibilityTable: every feature must either
// be refused or survive crash torture.
var compatSetters = map[string]func(c *compatCase){
	"SSD":                       func(c *compatCase) { c.opts.SSD = &SSDOptions{} },
	"ValueLog":                  func(c *compatCase) { c.opts.ValueLog = &ValueLogOptions{Threshold: 128, SegmentSize: 8 << 10} },
	"ValueLog.OnSSD":            func(c *compatCase) { c.opts.ValueLog = &ValueLogOptions{OnSSD: true} },
	"DisableWAL":                func(c *compatCase) { c.opts.DisableWAL = true },
	"Shards":                    func(c *compatCase) { c.shards = 2 },
	"Governor":                  func(c *compatCase) { c.governed = true },
	"DisableZeroCopyMerge":      func(c *compatCase) { c.opts.DisableZeroCopyMerge = true },
	"DisableOnePieceFlush":      func(c *compatCase) { c.opts.DisableOnePieceFlush = true },
	"DisableParallelCompaction": func(c *compatCase) { c.opts.DisableParallelCompaction = true },
	"BloomBitsPerKey < 0":       func(c *compatCase) { c.opts.BloomBitsPerKey = -1 },
}

// crashTestedElsewhere names the crash coverage of the features that live
// above one engine and are not refused at recovery.
var crashTestedElsewhere = map[string]string{
	"Shards": "internal/shard TestShardTortureCrossShardBatches and TestShardTortureSeeds",
}

// runRefused runs op on c's configuration and returns its error.
// Configurations above one engine have no entry point in this package;
// the shard router and the public package pass them to Refusal, and their
// own tests open them.
func runRefused(t *testing.T, op Operation, c compatCase) error {
	t.Helper()
	if c.shards > 1 || c.governed {
		return Refusal(op, c.opts, c.shards, c.governed)
	}
	if op == OpOpen {
		db, err := Open(c.opts)
		if err == nil {
			db.Close()
		}
		return err
	}
	// A feature refused at Open has no store of its own: the other
	// operations are asked of a store opened without it.
	open := c.opts
	if Refusal(OpOpen, open, 1, false) != nil {
		open = tortureOpts()
	}
	db := mustOpen(t, open)
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := db.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	switch op {
	case OpRecover:
		re, err := Recover(db.CrashForTest(), c.opts)
		if err == nil {
			re.Close()
		}
		return err
	case OpSnapshot:
		defer db.Close()
		s, err := db.Snapshot()
		if err == nil {
			s.Close()
		}
		return err
	default:
		defer db.Close()
		path := t.TempDir() + "/refused.img"
		err := db.Checkpoint(path)
		if _, serr := os.Stat(path); err != nil && serr == nil {
			t.Errorf("refused checkpoint left an image at %s", path)
		}
		return err
	}
}

// TestCompatibilityTable holds every feature to the table: each refused
// cell fails with its row's error, and every combination of the
// supported engine-level features survives crash torture. WAL-off
// combinations lose acked writes on a crash by design, so they run the
// structural half: write, crash, recover, CheckConsistency and
// CheckRegionAccounting.
func TestCompatibilityTable(t *testing.T) {
	var matrix []string
	for _, r := range compatTable {
		if compatSetters[r.feature] == nil {
			t.Errorf("row %q has no setter: it must be refused or survive torture", r.feature)
			continue
		}
		for op, want := range r.refuse {
			if want == nil {
				continue
			}
			c := compatCase{opts: tortureOpts(), shards: 1}
			compatSetters[r.feature](&c)
			if err := runRefused(t, Operation(op), c); err != want {
				t.Errorf("%s × operation %d: err = %v, want %v", r.feature, op, err, want)
			}
		}
		if r.refuse[OpRecover] == nil && crashTestedElsewhere[r.feature] == "" {
			matrix = append(matrix, r.feature)
		}
	}
	if t.Failed() {
		return
	}
	for mask := 0; mask < 1<<len(matrix); mask++ {
		c := compatCase{opts: tortureOpts(), shards: 1}
		var on []string
		for i, f := range matrix {
			if mask&(1<<i) != 0 {
				compatSetters[f](&c)
				on = append(on, f)
			}
		}
		name := strings.Join(on, "+")
		if name == "" {
			name = "defaults"
		}
		t.Run(name, func(t *testing.T) {
			if c.opts.DisableWAL {
				for seed := int64(0); seed < 3; seed++ {
					crashWithoutWAL(t, c.opts, seed)
				}
				return
			}
			for seed := int64(1); seed <= 2; seed++ {
				rep, err := RunTorture(TortureConfig{Seed: seed, Cycles: 8, Ops: 300, Opts: &c.opts, ValueLog: c.opts.ValueLog != nil})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.OpsAcked == 0 || rep.KeysChecked == 0 {
					t.Fatalf("seed %d: torture run did no work: %+v", seed, rep)
				}
			}
		})
	}
}

// crashWithoutWAL writes 600 keys, crashes, recovers and checks the
// structure: with no WAL an acked write is only crash-durable once
// flushed, so flushed state must recover consistently and leak no
// regions. Values straddle a value log's threshold when one is on.
func crashWithoutWAL(t *testing.T, opts Options, seed int64) {
	t.Helper()
	db := mustOpen(t, opts)
	for i := 0; i < 600; i++ {
		k := []byte{byte(i), byte(i >> 8), byte(seed)}
		if err := db.Put(k, bytes.Repeat(k, 1+i%64)); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatalf("seed %d: recover: %v", seed, err)
	}
	defer db2.Close()
	db2.WaitIdle()
	if err := db2.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := db2.CheckRegionAccounting(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// TestCompatibilityTableDocumented checks DESIGN.md §7's table against
// compatTable, row for row and cell for cell, so the document cannot go
// stale.
func TestCompatibilityTableDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| Feature | Open | Recover, OpenImage | Snapshot | Checkpoint |"
	_, rest, ok := strings.Cut(string(design), header+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no line %q", header)
	}
	var got []string
	for _, line := range strings.Split(rest, "\n")[1:] { // [1:] skips the |---| line
		if !strings.HasPrefix(line, "|") {
			break
		}
		got = append(got, line)
	}
	var want []string
	for _, r := range compatTable {
		row := "| `" + r.feature + "` |"
		for _, err := range r.refuse {
			cell := "—"
			if err != nil {
				cell = err.Error()
			}
			row += " " + cell + " |"
		}
		want = append(want, row)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("DESIGN.md's compatibility table is stale; want these rows:\n%s", strings.Join(want, "\n"))
	}
}

// TestCopyMergeReleasesSourceArenas: under the copy-merge ablation the
// merged pair's arenas are freed once the merge is logged, not leaked.
// The install step used to sever the sources' region ownership before
// the release ran, so the release freed nothing.
func TestCopyMergeReleasesSourceArenas(t *testing.T) {
	opts := tortureOpts()
	opts.DisableZeroCopyMerge = true
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("k%03d", i%500))
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	if db.levelStats[0].merges == 0 {
		t.Fatal("no merge ran: the test no longer builds its scenario")
	}
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRefusesSSD: an SSD-mode store's repository lives on the
// simulated disk, outside the NVM image, so Checkpoint must refuse with
// the table's error rather than write an image that restores without it.
func TestCheckpointRefusesSSD(t *testing.T) {
	opts := Options{MemTableSize: 8 << 10, Levels: 2, SSD: &SSDOptions{}}
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 4000; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		if err := db.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := Refusal(OpCheckpoint, opts, 1, false)
	if want == nil {
		t.Fatal("the compatibility table does not refuse checkpointing an SSD-mode store")
	}
	path := t.TempDir() + "/ssd.img"
	if err := db.Checkpoint(path); !errors.Is(err, want) {
		t.Fatalf("Checkpoint of an SSD-mode store: err = %v, want %v", err, want)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("refused checkpoint left an image behind")
	}
}
