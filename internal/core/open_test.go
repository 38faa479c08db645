package core

import (
	"fmt"
	"testing"
)

// TestOpenAccountsEveryRegion: Open is the recovery of an empty image, so
// right after it every region is reachable from the store — the empty
// generation it came up from is freed, not leaked — with the value log,
// without a WAL, and in SSD mode, where the tree's disk is among the
// store's devices.
func TestOpenAccountsEveryRegion(t *testing.T) {
	for name, set := range map[string]func(*Options){
		"plain":      func(*Options) {},
		"ValueLog":   func(o *Options) { o.ValueLog = &ValueLogOptions{Threshold: 128, SegmentSize: 8 << 10} },
		"DisableWAL": func(o *Options) { o.DisableWAL = true },
		"SSD":        func(o *Options) { o.SSD = &SSDOptions{} },
	} {
		t.Run(name, func(t *testing.T) {
			opts := smallOpts()
			set(&opts)
			db := mustOpen(t, opts)
			defer db.Close()
			if err := db.CheckRegionAccounting(); err != nil {
				t.Fatal(err)
			}
			if opts.SSD != nil {
				ssdCounters(t, db)
			}
		})
	}
}

// TestRecoverUnwrittenStore: a store crashed before its first write
// recovers empty, takes writes, and recovers them.
func TestRecoverUnwrittenStore(t *testing.T) {
	opts := smallOpts()
	img := mustOpen(t, opts).CrashForTest()
	db, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(nil, 0, func(k, _ []byte) bool {
		t.Errorf("recovered unwritten store holds %q", k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := range 500 {
		if err := db.Put(fmt.Appendf(nil, "k%04d", i), fmt.Appendf(nil, "v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db, err = Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := range 500 {
		if v, err := db.Get(fmt.Appendf(nil, "k%04d", i)); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d after recovery = %q, %v", i, v, err)
		}
	}
	db.WaitIdle()
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushAllEmptyAllocatesNothing: FlushAll with nothing in the memtable
// makes no fresh memtable or WAL region; the next region the space hands
// out takes the index right after the one before FlushAll.
func TestFlushAllEmptyAllocatesNothing(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	nextIndex := func() uint32 {
		r := db.nvm.NewRegion(4 << 10)
		defer db.nvm.Release(r)
		return r.Index()
	}
	regions, before := len(db.space.Regions()), nextIndex()
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := len(db.space.Regions()); n != regions {
		t.Errorf("FlushAll of an empty store: %d regions, want %d", n, regions)
	}
	if after := nextIndex(); after != before+1 {
		t.Errorf("FlushAll of an empty store allocated %d region(s)", after-before-1)
	}
}
