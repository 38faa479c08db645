package core

import (
	"fmt"

	"miodb/internal/jobs"
)

// startBackground starts the job table's runners (internal/jobs): one
// per job — the paper's per-level parallel compaction (§4.5), where a
// slow merge below never blocks a merge above — or, under
// DisableParallelCompaction, one runner shared round-robin by every merge
// job, the ablation. A job's error degrades the store under the job's
// name. The end of the last busy job retires the version, so the releases
// queued on it run (they skipped the retire-at-idle edit meanwhile).
func (db *DB) startBackground() {
	last := db.opts.Levels - 1
	flush := &jobs.Job{
		Name:  "flush",
		Ready: func() bool { return len(db.current.Load().imms) > 0 },
		Run: func() error {
			// Only this job retires memtables, so the oldest stays put.
			imms := db.current.Load().imms
			return db.flushOne(imms[len(imms)-1])
		},
	}
	var merges []*jobs.Job
	for level := 0; level < last; level++ {
		merges = append(merges, &jobs.Job{
			Name:  fmt.Sprintf("compaction L%d", level),
			Ready: func() bool { return db.levelNeedsMergeLocked(level) },
			Run:   func() error { return db.mergeOnce(level) },
		})
	}
	lazy := &jobs.Job{
		Name:  "lazy compaction",
		Ready: func() bool { return db.lazyWorkLocked(last) },
		Run: func() error {
			// Only this job removes bottom-level tables, so the oldest
			// stays put.
			entries := db.current.Load().levels[last]
			return db.lazyOne(last, entries[len(entries)-1].(tableEntry).t)
		},
	}

	runners := [][]*jobs.Job{{flush}, {lazy}}
	if db.opts.DisableParallelCompaction {
		runners = append(runners, merges)
	} else {
		for _, m := range merges {
			runners = append(runners, []*jobs.Job{m})
		}
	}
	if db.vlog != nil {
		seen := db.vlog.NextID()
		gc := &jobs.Job{
			Name:  "vlog gc",
			Ready: func() bool { return db.vlogPending },
			Run: func() error {
				db.mu.Lock()
				db.vlogPending = false // a kick from here on asks for another pass
				db.mu.Unlock()
				// Errors are sticky elsewhere (degraded mode) or transient
				// to this pass; either way later kicks are still served.
				_, _ = db.vlogGCPass(&seen)
				return nil
			},
		}
		runners = append(runners, []*jobs.Job{gc})
	}
	db.bg.OnError = db.degradeLocked
	db.bg.OnIdle = func() {
		if len(db.current.Load().releaseFns) > 0 {
			db.editVersionLocked(func(*version) {})
		}
	}
	db.bg.Start(runners...)
}
