package core

import (
	"time"

	"miodb/internal/stats"
)

// defaultSlowdownDelay is the per-commit throttling delay injected in the
// soft admission band when Options.Admission leaves SlowdownDelay unset.
// It is deliberately ≥100µs so the wait is a real sleep that yields the
// CPU to the flusher (nvm.Spin busy-loops below that threshold, which
// would starve the background work the writer is waiting for on a
// single-core host).
const defaultSlowdownDelay = 200 * time.Microsecond

// AdmissionOptions bounds the write path's elastic-buffer backlog. A
// threshold of zero disables that trigger; with both hard triggers off
// the controller only ever throttles, never blocks.
//
// The semantics follow the classic LSM slowdown/stop split, but measured
// honestly: every soft delay is charged to the cumulative-stall counter
// and every hard block to the interval-stall counter, so Table 1 reports
// what writers actually experienced rather than structural zeros.
type AdmissionOptions struct {
	// SoftImms is the immutable-memtable queue depth at or above which
	// each commit pays one SlowdownDelay before proceeding.
	SoftImms int
	// HardImms is the queue depth at or above which the committing writer
	// blocks until flushing retires a memtable (or the store closes or
	// degrades). It bounds DRAM held by rotated memtables to roughly
	// HardImms+1 arenas.
	HardImms int
	// SoftL0Bytes / HardL0Bytes are the same two bands measured on level
	// 0's user bytes — flush output the compactor has not merged down.
	SoftL0Bytes int64
	HardL0Bytes int64
	// SlowdownDelay is the injected soft-band delay per commit
	// (default 200µs).
	SlowdownDelay time.Duration
}

// backlogOf measures a version's write-path debt: the rotated memtables
// awaiting flush and the level-0 tables awaiting merge. Tables currently
// being merged count both sides (the bytes exist until the merge retires
// the sources).
func backlogOf(v *version) (imms int, immBytes int64, l0Tables int, l0Bytes int64) {
	imms = len(v.imms)
	for _, h := range v.imms {
		immBytes += h.mt.ApproximateBytes()
	}
	if len(v.levels) > 0 {
		for _, e := range v.levels[0] {
			l0Tables++
			switch t := e.(type) {
			case tableEntry:
				l0Bytes += t.t.UserBytes()
			case mergeEntry:
				l0Bytes += t.m.New.UserBytes() + t.m.Old.UserBytes()
			}
		}
	}
	return imms, immBytes, l0Tables, l0Bytes
}

func (ac *AdmissionOptions) overHard(imms int, l0Bytes int64) bool {
	return (ac.HardImms > 0 && imms >= ac.HardImms) ||
		(ac.HardL0Bytes > 0 && l0Bytes >= ac.HardL0Bytes)
}

func (ac *AdmissionOptions) overSoft(imms int, l0Bytes int64) bool {
	return (ac.SoftImms > 0 && imms >= ac.SoftImms) ||
		(ac.SoftL0Bytes > 0 && l0Bytes >= ac.SoftL0Bytes)
}

// admitWrite applies admission control ahead of a commit. It runs under
// commitMu, writeGate already passed, so one check covers a whole batch.
//
// In the hard band the writer sleeps on db.cond, which every
// editVersionLocked broadcast wakes — flush retiring an imm or a merge
// shrinking L0 re-opens admission. Holding commitMu here is safe: the
// flusher and compactors only need db.mu to publish progress, and the
// only rotation that could want commitMu is the blocked writer's own.
// The wait also ends if the store closes or degrades mid-stall, returning
// the gate error so the writer fails the same way writeGate would.
func (db *DB) admitWrite() error {
	ac := db.opts.Admission
	if ac == nil {
		return nil
	}
	imms, _, _, l0Bytes := backlogOf(db.current.Load())
	if ac.overHard(imms, l0Bytes) {
		start := time.Now()
		db.mu.Lock()
		for {
			if err := db.writeGateLocked(); err != nil {
				db.mu.Unlock()
				db.st.AddIntervalStall(time.Since(start))
				return err
			}
			imms, _, _, l0Bytes = backlogOf(db.current.Load())
			if !ac.overHard(imms, l0Bytes) {
				break
			}
			db.cond.Wait()
		}
		db.mu.Unlock()
		db.st.AddIntervalStall(time.Since(start))
		return nil
	}
	if ac.overSoft(imms, l0Bytes) {
		// A real sleep, not a spin: the flusher needs the CPU. Charge the
		// measured elapsed time, not the nominal delay — on a loaded
		// single-core host the timer oversleeps severalfold, and that
		// extra wait is exactly the stall the writer experienced.
		start := time.Now()
		time.Sleep(ac.SlowdownDelay)
		db.st.AddCumulativeStall(time.Since(start))
	}
	return nil
}

// attachBacklog publishes the current version's backlog gauges into a
// stats snapshot.
func (db *DB) attachBacklog(s *stats.Snapshot) {
	imms, immBytes, l0Tables, l0Bytes := backlogOf(db.current.Load())
	s.AttachBacklog(int64(imms), immBytes, int64(l0Tables), l0Bytes)
}
