package core

import (
	"fmt"
	"testing"
	"time"

	"miodb/internal/nvm"
)

// burstOpts builds a store whose flush path can be slowed through the
// NVM device's fault-plan brake while the foreground write path stays
// fast: the WAL is off (its appends would pay the brake too) and the
// memtable is tiny so a short burst forces many rotations.
func burstOpts() Options {
	return Options{
		MemTableSize:   4 << 10,
		ChunkSize:      16 << 10,
		Levels:         3,
		FilterCapacity: 1 << 12,
		DisableWAL:     true,
	}
}

// TestBacklogGaugeRises: a write burst that outruns a slowed flush path
// must show up in the PendingImms gauge — the unbounded elastic-buffer
// debt the paper's stall-free result quietly accumulates — while both
// stall counters stay zero (the writer never waited).
func TestBacklogGaugeRises(t *testing.T) {
	db := mustOpen(t, burstOpts())
	defer db.Close()
	_, dev := db.Devices()
	dev.SetFaultPlan(nvm.NewFaultPlan(1).DelayWrites(1<<10, 2*time.Millisecond))
	defer dev.SetFaultPlan(nil)

	value := make([]byte, 256)
	var peak int64
	for i := 0; i < 600; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), value); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if i%20 != 0 {
			continue
		}
		if imms := db.Stats().PendingImms; imms > peak {
			peak = imms
		}
	}
	if peak < 8 {
		t.Errorf("peak PendingImms = %d, want ≥8 (backlog should grow without bound)", peak)
	}
	st := db.Stats()
	if st.IntervalStalls != 0 || st.IntervalStall != 0 || st.CumulativeStall != 0 {
		t.Errorf("the write path must never stall: intervals=%d (%v) cumulative=%v",
			st.IntervalStalls, st.IntervalStall, st.CumulativeStall)
	}
	if st.PendingImmBytes == 0 && st.PendingImms > 0 {
		t.Error("PendingImmBytes gauge empty while imms are queued")
	}
	// Lift the brake so Close's drain runs at full speed.
	dev.SetFaultPlan(nil)
}
