package core

import "fmt"

// A bgJob is one kind of background work in the job table: flush the
// oldest immutable memtable, merge one buffer level, lazy-copy the bottom
// level, or make one paced value-log GC pass. readyLocked reports, under
// db.mu, whether there is work to start; run does one unit of it with
// db.mu released. busy (under db.mu) is set while a runner is inside run:
// a job never runs twice at once, and the store is not idle while it runs.
type bgJob struct {
	name        string
	readyLocked func() bool
	run         func() error
	busy        bool
}

// startBackground builds the job table and starts its runners: one per
// job — the paper's per-level parallel compaction (§4.5), where a slow
// merge below never blocks a merge above — or, under
// DisableParallelCompaction, one runner shared round-robin by every merge
// job, the ablation.
func (db *DB) startBackground() {
	last := db.opts.Levels - 1
	flush := &bgJob{
		name:        "flush",
		readyLocked: func() bool { return len(db.current.Load().imms) > 0 },
		run: func() error {
			// Only this job retires memtables, so the oldest stays put.
			imms := db.current.Load().imms
			return db.flushOne(imms[len(imms)-1])
		},
	}
	var merges []*bgJob
	for level := 0; level < last; level++ {
		merges = append(merges, &bgJob{
			name:        fmt.Sprintf("compaction L%d", level),
			readyLocked: func() bool { return db.levelNeedsMergeLocked(level) },
			run:         func() error { return db.mergeOnce(level) },
		})
	}
	lazy := &bgJob{
		name:        "lazy compaction",
		readyLocked: func() bool { return db.lazyWorkLocked(last) },
		run: func() error {
			// Only this job removes bottom-level tables, so the oldest
			// stays put.
			entries := db.current.Load().levels[last]
			return db.lazyOne(last, entries[len(entries)-1].(tableEntry).t)
		},
	}

	db.jobs = append(append([]*bgJob{flush}, merges...), lazy)
	runners := [][]*bgJob{{flush}, {lazy}}
	if db.opts.DisableParallelCompaction {
		runners = append(runners, merges)
	} else {
		for _, m := range merges {
			runners = append(runners, []*bgJob{m})
		}
	}
	if db.vlog != nil {
		seen := db.vlog.NextID()
		gc := &bgJob{
			name:        "vlog gc",
			readyLocked: func() bool { return db.vlogPending },
			run: func() error {
				db.mu.Lock()
				db.vlogPending = false // a kick from here on asks for another pass
				db.mu.Unlock()
				// Errors are sticky elsewhere (degraded mode) or transient
				// to this pass; either way later kicks are still served.
				_, _ = db.vlogGCPass(&seen)
				return nil
			},
		}
		db.jobs = append(db.jobs, gc)
		runners = append(runners, []*bgJob{gc})
	}
	for _, jobs := range runners {
		db.wg.Add(1)
		go db.runner(jobs)
	}
}

// runner serves jobs. Under db.mu it takes the next ready job that is not
// busy, round-robin so a shared runner starves none, and runs it with
// db.mu released. It exits on a simulated crash (abandon), on the
// degraded latch, or once the store is closed with none of its jobs
// ready — Close drains queued work first. A job's error degrades the
// store under the job's name: reads keep being served through the
// version chain.
func (db *DB) runner(jobs []*bgJob) {
	defer db.wg.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	next := 0
	for {
		var j *bgJob
		for i := range jobs {
			if c := jobs[(next+i)%len(jobs)]; !c.busy && c.readyLocked() {
				j, next = c, (next+i+1)%len(jobs)
				break
			}
		}
		if db.abandon || db.bgErr != nil || (j == nil && db.closed) {
			return
		}
		if j == nil {
			db.cond.Wait()
			continue
		}
		j.busy = true
		db.mu.Unlock()
		err := j.run()
		db.mu.Lock()
		j.busy = false
		if err != nil {
			db.degradeLocked(j.name, err)
			return
		}
		// The end of the last busy job leaves the store idle: retire the
		// version so the releases queued on it run (they skipped the
		// retire-at-idle edit while the job was busy), and wake WaitIdle.
		if db.idleLocked() {
			if len(db.current.Load().releaseFns) > 0 {
				db.editVersionLocked(func(*version) {})
			}
			db.cond.Broadcast()
		}
	}
}

// idleLocked reports whether no background job is ready or running.
func (db *DB) idleLocked() bool {
	for _, j := range db.jobs {
		if j.busy || j.readyLocked() {
			return false
		}
	}
	return true
}
