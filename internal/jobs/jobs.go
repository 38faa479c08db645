// Package jobs is the background-job table of the module, one per store:
// MioDB's flush, merges, lazy copy and value-log GC (internal/core), the
// baselines' retire and MatrixKV's column job (internal/baseline), and
// the SSTable tree's compaction (internal/lsm), on its owner's table.
//
// A runner goroutine serves a list of jobs round-robin, so a shared
// runner starves none. The caller supplies the lock; the table owns the
// one sync.Cond on it, which blocked writers wait on too (Wait). A job's
// end broadcasts only when it leaves the table idle or a goroutine waits
// in Wait or Exclusive: a Run that makes another job ready broadcasts
// itself (Broadcast). A table ends in one of three ways: Close lets the
// runners drain the ready work; StopLocked (Abandon) makes them exit at
// their next pick, dropping it; a job's error stops them the same way
// and calls OnError once.
//
// Seam for deterministic tests: a Step(rng) method could run one ready,
// not-busy job, chosen by rng, inline on the caller's goroutine of a table
// whose runners never started — one schedule per seed. Not implemented.
package jobs

import "sync"

// Job is one kind of background work.
type Job struct {
	Name  string
	Ready func() bool  // lock held: is there work to start?
	Run   func() error // lock released: do one unit of it
	busy  bool         // a runner (or Exclusive) is inside Run
}

// Table is a set of jobs and the runners that serve them.
type Table struct {
	// OnError (lock held) gets the first job error, once the runners
	// have been told to stop.
	OnError func(job string, err error)
	// OnIdle (lock held) runs when a job's end leaves the table idle.
	OnIdle func()

	mu                      *sync.Mutex
	cond                    *sync.Cond
	wg                      *sync.WaitGroup
	jobs                    []*Job
	waiting                 int // goroutines in Wait or Exclusive
	closed, stopped, failed bool
}

// New makes a table on mu whose runners join wg (nil: a group of its
// own).
func New(mu *sync.Mutex, wg *sync.WaitGroup) *Table {
	if wg == nil {
		wg = new(sync.WaitGroup)
	}
	return &Table{mu: mu, cond: sync.NewCond(mu), wg: wg}
}

// Start adds the jobs and starts one runner per list; call it once.
func (t *Table) Start(runners ...[]*Job) {
	for _, jobs := range runners {
		t.jobs = append(t.jobs, jobs...)
	}
	for _, jobs := range runners {
		t.wg.Add(1)
		go t.run(jobs)
	}
}

func (t *Table) run(jobs []*Job) {
	defer t.wg.Done()
	t.mu.Lock()
	defer t.mu.Unlock()
	next := 0
	for {
		var j *Job
		for i := range jobs {
			if c := jobs[(next+i)%len(jobs)]; !c.busy && c.Ready() {
				j, next = c, (next+i+1)%len(jobs)
				break
			}
		}
		if t.stopped || (j == nil && t.closed) {
			return
		}
		if j == nil {
			t.cond.Wait()
			continue
		}
		j.busy = true
		t.mu.Unlock()
		err := j.Run()
		t.mu.Lock()
		j.busy = false
		switch {
		case err != nil:
			t.StopLocked()
			if !t.failed && t.OnError != nil {
				t.OnError(j.Name, err)
			}
			t.failed = true
		case t.IdleLocked():
			if t.OnIdle != nil {
				t.OnIdle()
			}
			t.cond.Broadcast()
		case t.waiting > 0:
			t.cond.Broadcast()
		}
	}
}

// Broadcast wakes the runners and every Wait after a change.
func (t *Table) Broadcast() { t.cond.Broadcast() }

// IdleLocked reports whether no job is ready or busy.
func (t *Table) IdleLocked() bool {
	for _, j := range t.jobs {
		if j.busy || j.Ready() {
			return false
		}
	}
	return true
}

// ClosedLocked reports whether Close has begun.
func (t *Table) ClosedLocked() bool { return t.closed }

// Wait (lock held) blocks until pred holds or the table closes or stops.
func (t *Table) Wait(pred func() bool) {
	t.waiting++
	for !pred() && !t.closed && !t.stopped {
		t.cond.Wait()
	}
	t.waiting--
}

// WaitIdle (lock held) is Wait(IdleLocked): a stopped table's ready work
// never drains.
func (t *Table) WaitIdle() { t.Wait(t.IdleLocked) }

// Exclusive runs fn on the caller's goroutine as job j: it waits out a
// run of j in flight, and no runner starts j until fn returns.
func (t *Table) Exclusive(j *Job, fn func() error) error {
	t.mu.Lock()
	t.waiting++
	for j.busy {
		t.cond.Wait()
	}
	t.waiting--
	j.busy = true
	t.mu.Unlock()
	err := fn()
	t.mu.Lock()
	j.busy = false
	t.cond.Broadcast()
	t.mu.Unlock()
	return err
}

// StopLocked makes the runners exit at their next pick; a job in flight
// completes.
func (t *Table) StopLocked() {
	t.stopped = true
	t.cond.Broadcast()
}

// Close lets the runners drain the ready work and waits for them.
func (t *Table) Close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.wg.Wait()
}

// Abandon stops the runners and waits for them.
func (t *Table) Abandon() {
	t.mu.Lock()
	t.StopLocked()
	t.mu.Unlock()
	t.wg.Wait()
}
