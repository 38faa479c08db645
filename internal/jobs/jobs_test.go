package jobs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// within fails the test if fn does not return within a generous bound.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked", what)
	}
}

// TestSharedRunnerStarvesNoJob: one runner serves a job that stays ready
// until the other has run 100 times; picking the first ready job every
// time would never reach the second.
func TestSharedRunnerStarvesNoJob(t *testing.T) {
	var mu sync.Mutex
	tb := New(&mu, nil)
	hog, n := 0, 0
	tb.Start([]*Job{
		{Name: "hog", Ready: func() bool { return n < 100 }, Run: func() error { mu.Lock(); hog++; mu.Unlock(); return nil }},
		{Name: "other", Ready: func() bool { return n < 100 }, Run: func() error { mu.Lock(); n++; mu.Unlock(); return nil }},
	})
	within(t, "WaitIdle", func() {
		mu.Lock()
		tb.WaitIdle()
		mu.Unlock()
	})
	if hog > n+1 {
		t.Fatalf("shared runner ran the first job %d times to the second's %d", hog, n)
	}
	tb.Close()
}

// gated is a job with pending units whose first run blocks until gate
// closes.
func gated(mu *sync.Mutex, pending *int, gate chan struct{}) *Job {
	return &Job{
		Name:  "gated",
		Ready: func() bool { return *pending > 0 },
		Run: func() error {
			<-gate
			mu.Lock()
			*pending--
			mu.Unlock()
			return nil
		},
	}
}

// TestCloseDrainsAbandonDrops: Close lets the runner finish every ready
// unit; a stop drops the units behind the one in flight.
func TestCloseDrainsAbandonDrops(t *testing.T) {
	var mu sync.Mutex
	pending, gate := 10, make(chan struct{})
	tb := New(&mu, nil)
	tb.Start([]*Job{gated(&mu, &pending, gate)})
	within(t, "Close", func() {
		go close(gate)
		tb.Close()
	})
	if pending != 0 {
		t.Fatalf("Close left %d ready units", pending)
	}

	var wg sync.WaitGroup
	pending, gate = 10, make(chan struct{})
	tb = New(&mu, &wg)
	tb.Start([]*Job{gated(&mu, &pending, gate)})
	mu.Lock()
	tb.StopLocked()
	mu.Unlock()
	close(gate)
	within(t, "stopped runners", wg.Wait)
	if pending < 9 {
		t.Fatalf("a stopped table ran %d units", 10-pending)
	}
}

// TestWaitReturnsOnClose: a writer waiting for a predicate that never
// holds is released by Close.
func TestWaitReturnsOnClose(t *testing.T) {
	var mu sync.Mutex
	tb := New(&mu, nil)
	tb.Start()
	waiting := make(chan struct{})
	done := make(chan struct{})
	go func() {
		mu.Lock()
		close(waiting)
		tb.Wait(func() bool { return false })
		mu.Unlock()
		close(done)
	}()
	<-waiting
	tb.Close()
	within(t, "Wait", func() { <-done })
}

// TestJobErrorStopsEveryRunner: the first job error stops all runners
// without Close, and OnError is called once even when both jobs fail.
func TestJobErrorStopsEveryRunner(t *testing.T) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	tb := New(&mu, &wg)
	calls := 0
	tb.OnError = func(job string, err error) { calls++ }
	fail := func() error { return errors.New("device failed") }
	tb.Start(
		[]*Job{{Name: "a", Ready: func() bool { return true }, Run: fail}},
		[]*Job{{Name: "b", Ready: func() bool { return true }, Run: fail}},
	)
	within(t, "runners after a job error", wg.Wait)
	if calls != 1 {
		t.Fatalf("OnError called %d times", calls)
	}
	mu.Lock()
	tb.WaitIdle() // returns: a stopped table's ready work never drains
	mu.Unlock()
}
