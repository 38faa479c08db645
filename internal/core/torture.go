package core

import (
	"fmt"
	"io"
	"math/rand"

	"miodb/internal/keys"
	"miodb/internal/nvm"
)

// TortureConfig drives RunTorture, the randomized crash-recovery
// harness. The zero value of every field selects a sensible default.
type TortureConfig struct {
	// Seed seeds the one random stream the run draws from: each cycle's
	// crash mode and its byte or write budget, and the keys, values and
	// op mix. It does not fix the goroutine schedule. Background flushes
	// and merges write to the same device as the workload, so which write
	// a budget cuts, and with it where a cycle ends and what the stream
	// draws next, can differ between two runs of one seed. A failing seed
	// does not replay; torture is measured as a rate (make torture-rate).
	Seed int64
	// Cycles is the number of crash/recover rounds (default 50).
	Cycles int
	// Ops is the target number of updates per cycle; an injected crash
	// usually cuts a cycle short (default 400).
	Ops int
	// Opts overrides the store's structural options. The zero value uses
	// a torture-tuned configuration (tiny memtables, 4 levels) so every
	// cycle pushes data through flushes, zero-copy merges, and lazy
	// copies before it crashes.
	Opts *Options
	// ValueLog tortures key-value separation: the store runs with a
	// low separation threshold (unless Opts supplies its own ValueLog
	// configuration), the workload pads values to straddle it, value-log
	// GC runs both mid-workload (racing the armed crash plans) and
	// immediately after every recovery, and the per-cycle verification
	// sweep re-reads every key through whatever relocations GC performed
	// — a pointer resolving into a reclaimed segment fails the run.
	ValueLog bool
	// Log, when non-nil, receives one progress line per cycle.
	Log io.Writer
}

// TortureReport summarizes a finished torture run.
type TortureReport struct {
	Cycles int
	// OpsAcked counts updates whose Put/Delete returned nil — the
	// updates recovery must never lose.
	OpsAcked int64
	// OpsUncertain counts updates cut off by an injected fault: the ack
	// never arrived, so recovery may legitimately surface either the old
	// or the new value.
	OpsUncertain int64
	// Resurrected counts uncertain updates that recovery proved durable
	// (the WAL record beat the crash).
	Resurrected int64
	// RangeDeletes counts acknowledged DeleteRange ops mixed into the
	// workload; every key they covered must stay dead across recovery.
	RangeDeletes int64
	// KeysChecked counts post-recovery point lookups verified against
	// the model.
	KeysChecked int64
	// CleanCrashes are cycles crashed with no fault injection (background
	// work dropped mid-flight); ByteCrashes and OpCrashes are cycles cut
	// by a byte-budget or op-count device crash trigger (torn tails on).
	CleanCrashes, ByteCrashes, OpCrashes int
	// DoubleCrashes counts recoveries that were themselves interrupted by
	// an injected fault and had to run again from the same image.
	DoubleCrashes int
	// Degraded counts cycles where the store latched read-only before the
	// simulated power failure (the expected outcome of a persistent
	// injected fault).
	Degraded int
	// Value-log activity (ValueLog mode only), summed across cycles from
	// each store lifetime's counters just before its crash: values that
	// went through the log, live entries GC re-committed, and segments
	// reclaimed.
	VlogAppends, VlogRelocations, VlogReclaimed int64
}

func (r *TortureReport) String() string {
	s := fmt.Sprintf(
		"torture: %d cycles, %d acked / %d uncertain ops (%d resurrected), "+
			"%d lookups verified, crashes clean/byte/op %d/%d/%d, %d double, %d degraded",
		r.Cycles, r.OpsAcked, r.OpsUncertain, r.Resurrected, r.KeysChecked,
		r.CleanCrashes, r.ByteCrashes, r.OpCrashes, r.DoubleCrashes, r.Degraded)
	if r.VlogAppends > 0 {
		s += fmt.Sprintf(", vlog %d appends / %d relocated / %d segs reclaimed",
			r.VlogAppends, r.VlogRelocations, r.VlogReclaimed)
	}
	return s
}

// tortureOpts is the default structural configuration: tiny memtables so
// a few hundred updates traverse the full flush/merge/lazy-copy pipeline
// inside one cycle.
func tortureOpts() Options {
	return Options{
		MemTableSize:   8 << 10,
		ChunkSize:      32 << 10,
		Levels:         4,
		FilterCapacity: 1 << 12,
	}
}

// pendingOp is the at-most-one update per cycle whose ack was cut off by
// an injected fault. Recovery may surface either its value or the
// previous state; the verifier accepts both and folds the observed
// outcome back into the model. For a range delete, key holds the start
// and end the exclusive bound; a range tombstone is a single WAL record,
// so across a crash it is atomic — either every covered key is gone or
// none is.
type pendingOp struct {
	valid    bool
	key      string
	val      string
	del      bool
	rangeDel bool
	end      string
}

// covers reports whether a pending range delete spans key k.
func (p pendingOp) covers(k string) bool {
	return p.valid && p.rangeDel && k >= p.key && k < p.end
}

// RunTorture executes a randomized crash-torture run and verifies, after
// every recovery, that:
//
//   - every acknowledged update is present (no acked write lost);
//   - every unacknowledged update resolved to all-or-nothing;
//   - deleted and range-deleted keys stay deleted (no resurrection);
//   - the sequence counter never regressed below the newest acked update;
//   - the store's structural invariants hold (CheckConsistency);
//   - every NVM/DRAM region is reachable from the recovered state
//     (CheckRegionAccounting — no leaks across crash/recover cycles).
//
// Crash points are randomized across three modes (clean power failure,
// byte-budget device crash with torn tails, op-count device crash), and a
// quarter of recoveries are themselves interrupted by a second injected
// crash and retried from the same image — exercising the recovery path's
// own crash consistency.
//
// With cfg.ValueLog set the same invariants additionally cover key-value
// separation: values straddle the threshold, GC runs against armed crash
// plans and right after recovery, and every post-recovery lookup goes
// through pointer resolution — so "no pointer ever resolves into a
// reclaimed or torn segment" is checked by the same sweep, and
// CheckRegionAccounting's leak audit extends to value-log segments.
func RunTorture(cfg TortureConfig) (*TortureReport, error) {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 50
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	opts := tortureOpts()
	if cfg.Opts != nil {
		opts = *cfg.Opts
	}
	if cfg.ValueLog && opts.ValueLog == nil {
		// Low threshold so the padded workload splits between inline and
		// logged values; small segments so GC has many candidates.
		opts.ValueLog = &ValueLogOptions{Threshold: 128, SegmentSize: 8 << 10}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &TortureReport{}

	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()

	const keyspace = 512
	model := make(map[string]string) // acked live values
	ever := make(map[string]bool)    // every key ever written
	var pending pendingOp
	// seqFloor is the newest acked update's own sequence number, as its
	// commit reported it. db.LastSeq() read after the ack is no floor: a
	// background value-log relocation can burn a seq in between that is
	// never logged, so recovery rightly comes back below it.
	var seqFloor uint64

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		_, dev := db.Devices()

		// Arm this cycle's crash mode.
		switch m := rng.Intn(10); {
		case m < 4:
			budget := 1 + rng.Int63n(int64(cfg.Ops)*300)
			dev.SetFaultPlan(nvm.NewFaultPlan(rng.Int63()).CrashAfterBytes(budget).TornWrites())
			rep.ByteCrashes++
		case m < 6:
			n := 1 + rng.Intn(cfg.Ops*2)
			dev.SetFaultPlan(nvm.NewFaultPlan(rng.Int63()).CrashAfterWrites(n).TornWrites())
			rep.OpCrashes++
		default:
			dev.SetFaultPlan(nil)
			rep.CleanCrashes++
		}

		// Write phase: sequential updates until the budget runs out or
		// the injected crash cuts the ack path.
		pending = pendingOp{}
		for op := 0; op < cfg.Ops; op++ {
			// Rarely, replace the point op with a range delete over a small
			// random span of the key space.
			if rng.Intn(40) == 0 {
				a := rng.Intn(keyspace)
				start := fmt.Sprintf("k%04d", a)
				end := fmt.Sprintf("k%04d", a+1+rng.Intn(24))
				seq, err := db.commit(batchOp{key: []byte(start), value: []byte(end), kind: keys.KindRangeDelete}, nil)
				if err != nil {
					if dev.Faults() == nil {
						return nil, fmt.Errorf("cycle %d op %d: range delete failed with no fault armed: %w", cycle, op, err)
					}
					pending = pendingOp{valid: true, key: start, end: end, rangeDel: true}
					rep.OpsUncertain++
					break
				}
				for k := range model {
					if k >= start && k < end {
						delete(model, k)
					}
				}
				rep.OpsAcked++
				rep.RangeDeletes++
				seqFloor = seq
				continue
			}
			k := fmt.Sprintf("k%04d", rng.Intn(keyspace))
			del := rng.Intn(10) == 0
			var v string
			w := batchOp{key: []byte(k), kind: keys.KindDelete}
			if !del {
				v = fmt.Sprintf("v-%s-c%d-o%d-%0*d", k, cycle, op, rng.Intn(90), 0)
				if cfg.ValueLog {
					// Pad to straddle the separation threshold: roughly half
					// the values route through the value log, half stay
					// inline, and the boundary sizes hit both sides of the
					// threshold comparison.
					v = fmt.Sprintf("%s%0*d", v, 1+rng.Intn(400), 0)
				}
				w = batchOp{key: []byte(k), value: []byte(v), kind: keys.KindSet}
			}
			seq, err := db.commit(w, nil)
			if err != nil {
				if dev.Faults() == nil {
					return nil, fmt.Errorf("cycle %d op %d: write failed with no fault armed: %w", cycle, op, err)
				}
				pending = pendingOp{valid: true, key: k, val: v, del: del}
				rep.OpsUncertain++
				break
			}
			ever[k] = true
			if del {
				delete(model, k)
			} else {
				model[k] = v
			}
			rep.OpsAcked++
			seqFloor = seq

			// Occasionally force a full GC pass mid-workload, racing the
			// cycle's armed crash plan: relocations go through the same
			// faulted device as client writes, so they may fail (or latch
			// the store degraded) — but never with no fault armed.
			if cfg.ValueLog && rng.Intn(60) == 0 {
				if _, gcErr := db.RunValueLogGC(); gcErr != nil && dev.Faults() == nil && db.Err() == nil {
					return nil, fmt.Errorf("cycle %d op %d: vlog GC failed with no fault armed: %w", cycle, op, gcErr)
				}
			}

			// Occasional live read-back: before any crash, acked state
			// must read back exactly.
			if rng.Intn(24) == 0 {
				probe := fmt.Sprintf("k%04d", rng.Intn(keyspace))
				if err := verifyKey(db, probe, model, pendingOp{}); err != nil {
					return nil, fmt.Errorf("cycle %d live probe: %w", cycle, err)
				}
			}
		}
		if db.Err() != nil {
			rep.Degraded++
		}

		// This store lifetime's value-log activity, summed before its
		// counters die with the crash.
		if cfg.ValueLog {
			c := db.ValueLogCounters()
			rep.VlogAppends += c.Appends
			rep.VlogRelocations += c.GCRelocations
			rep.VlogReclaimed += c.GCSegmentsReclaimed
		}

		// Power failure, then recovery — sometimes interrupted by a
		// second injected crash and retried from the same image.
		img := db.CrashForTest()
		db = nil
		injectRecover := rng.Intn(4) == 0
		for attempt := 0; ; attempt++ {
			if attempt == 0 && injectRecover {
				img.NVM.SetFaultPlan(nvm.NewFaultPlan(rng.Int63()).
					CrashAfterBytes(1 + rng.Int63n(16<<10)).TornWrites())
			} else {
				img.NVM.SetFaultPlan(nil)
			}
			db, err = Recover(img, opts)
			if err == nil {
				break
			}
			// Only the armed crash firing excuses a failed attempt; any
			// other recovery error is a bug the retry must not hide.
			if p := img.NVM.Faults(); p == nil || !p.Crashed() {
				return nil, fmt.Errorf("cycle %d: recover (attempt %d): %w", cycle, attempt, err)
			}
			rep.DoubleCrashes++
		}
		img.NVM.SetFaultPlan(nil)

		// A fault plan armed before Recover may survive recovery with
		// budget left and fire on post-recovery background work. If it
		// latched the store, crash once more and recover clean.
		db.WaitIdle()
		if db.Err() != nil {
			img = db.CrashForTest()
			img.NVM.SetFaultPlan(nil)
			db, err = Recover(img, opts)
			if err != nil {
				return nil, fmt.Errorf("cycle %d: clean re-recover: %w", cycle, err)
			}
			rep.DoubleCrashes++
			db.WaitIdle()
		}

		// GC immediately after recovery: reclamation must be safe against
		// the just-replayed state, and the verification sweep below then
		// re-reads every key through whatever relocations it performed.
		if cfg.ValueLog {
			if _, gcErr := db.RunValueLogGC(); gcErr != nil && db.Err() == nil {
				return nil, fmt.Errorf("cycle %d: post-recovery vlog GC: %w", cycle, gcErr)
			}
			// Relocations are writes: they rotate memtables, and the flushes
			// and merges that follow must drain before the structural checks.
			db.WaitIdle()
		}

		// Verify: sequence floor, every key's value, structure, regions.
		if got := db.LastSeq(); got < seqFloor {
			return nil, fmt.Errorf("cycle %d: seq regressed: recovered %d < acked floor %d", cycle, got, seqFloor)
		}
		for k := range ever {
			if err := verifyKey(db, k, model, pending); err != nil {
				return nil, fmt.Errorf("cycle %d: %w", cycle, err)
			}
			rep.KeysChecked++
		}
		// Fold the pending op's observed outcome into the model.
		if pending.valid && pending.rangeDel {
			// A range tombstone is one WAL record, so it applied atomically
			// or not at all: probing any one covered model key decides for
			// the whole span.
			for k := range model {
				if !pending.covers(k) {
					continue
				}
				if _, err := db.Get([]byte(k)); err == ErrNotFound {
					for k2 := range model {
						if pending.covers(k2) {
							delete(model, k2)
						}
					}
					rep.Resurrected++ // the tombstone beat the crash
				}
				break
			}
			pending = pendingOp{}
		} else if pending.valid {
			got, err := db.Get([]byte(pending.key))
			switch {
			case pending.del && err == ErrNotFound:
				delete(model, pending.key)
				rep.Resurrected++ // the delete beat the crash
			case !pending.del && err == nil && string(got) == pending.val:
				model[pending.key] = pending.val
				ever[pending.key] = true
				rep.Resurrected++
			}
			pending = pendingOp{}
		}
		if err := db.CheckConsistency(); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if err := db.CheckRegionAccounting(); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}

		rep.Cycles++
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "torture cycle %3d: %d keys live, %d acked ops, seq %d\n",
				cycle, len(model), rep.OpsAcked, db.LastSeq())
		}
	}
	if cfg.ValueLog {
		c := db.ValueLogCounters()
		rep.VlogAppends += c.Appends
		rep.VlogRelocations += c.GCRelocations
		rep.VlogReclaimed += c.GCSegmentsReclaimed
	}
	err = db.Close()
	db = nil
	if err != nil {
		return nil, fmt.Errorf("final close: %w", err)
	}
	return rep, nil
}

// verifyKey checks one key against the model, honoring the at-most-one
// pending (unacknowledged) op whose outcome is legitimately either-or.
func verifyKey(db *DB, k string, model map[string]string, pending pendingOp) error {
	got, err := db.Get([]byte(k))
	if err != nil && err != ErrNotFound {
		return fmt.Errorf("get %q: %w", k, err)
	}
	want, inModel := model[k]

	if pending.covers(k) {
		// Inside an unacked range delete: accept the prior state or
		// not-found. (Atomicity across the span is enforced by the fold-in
		// probe, which resolves the whole range from one key.)
		if err == ErrNotFound || (inModel && err == nil && string(got) == want) {
			return nil
		}
		return fmt.Errorf("key %q inside unacked range delete [%q,%q): got %q, %v (want %q or not-found)",
			k, pending.key, pending.end, got, err, want)
	}

	if pending.valid && !pending.rangeDel && pending.key == k {
		// Unacked op on this key: accept old state or new state.
		if pending.del {
			if err == ErrNotFound || (inModel && err == nil && string(got) == want) {
				return nil
			}
			return fmt.Errorf("key %q after unacked delete: got %q, %v (want %q or not-found)", k, got, err, want)
		}
		if err == nil && string(got) == pending.val {
			return nil // new value won
		}
		if inModel && err == nil && string(got) == want {
			return nil // old value retained
		}
		if !inModel && err == ErrNotFound {
			return nil // never existed, write fully lost
		}
		return fmt.Errorf("key %q after unacked put: got %q, %v (want %q, %q, or prior state)",
			k, got, err, pending.val, want)
	}

	if inModel {
		if err != nil {
			return fmt.Errorf("acked key %q lost: %v (want %q)", k, err, want)
		}
		if string(got) != want {
			return fmt.Errorf("acked key %q: got %q, want %q", k, got, want)
		}
		return nil
	}
	if err != ErrNotFound {
		return fmt.Errorf("deleted key %q resurrected: got %q", k, got)
	}
	return nil
}
