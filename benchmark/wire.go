package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"miodb/internal/client"
	"miodb/internal/kvstore"
	"miodb/internal/server"
	"miodb/internal/stats"
)

// connStore drives one pipelined client connection.
type connStore struct{ c *client.Conn }

func (s connStore) put(k, v []byte) error        { return s.c.Put(k, v) }
func (s connStore) get(k []byte) ([]byte, error) { return s.c.Get(k) }
func (s connStore) scan(start []byte, limit int, fn func(k, v []byte)) error {
	pairs, err := s.c.Scan(start, limit)
	for _, p := range pairs {
		fn(p[0], p[1])
	}
	return err
}

// noopStore answers every request without doing anything: the same wire
// load against it costs the front end alone (codec, reader/writer split,
// batcher), so wire cost separates from engine cost.
type noopStore struct{ value []byte }

func (noopStore) Put(_, _ []byte) error                                { return nil }
func (n noopStore) Get(_ []byte) ([]byte, error)                       { return n.value, nil }
func (noopStore) Delete(_ []byte) error                                { return nil }
func (noopStore) Scan(_ []byte, _ int, _ func(_, _ []byte) bool) error { return nil }
func (noopStore) Flush() error                                         { return nil }
func (noopStore) Stats() stats.Snapshot                                { return stats.Snapshot{} }
func (noopStore) Close() error                                         { return nil }
func (noopStore) WriteBatch(_ []kvstore.BatchOp) error                 { return nil }

var _ kvstore.Store = noopStore{}

// wire is a server on a loopback port and the client connections to it.
type wire struct {
	srv   *server.Server
	addr  string
	conns []*client.Conn
}

func dialWire(st kvstore.Store, nconns int) (*wire, error) {
	w := &wire{srv: server.New(st)}
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	w.addr = addr.String()
	for i := 0; i < nconns; i++ {
		c, err := client.Dial(w.addr, client.Options{})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		w.conns = append(w.conns, c)
	}
	return w, nil
}

// close stops the clients and the server and returns once every
// goroutine of theirs has ended.
func (w *wire) close() {
	for _, c := range w.conns {
		c.Close()
	}
	w.srv.Close()
}

// stores gives each of callers its connection, round robin.
func (w *wire) stores(callers int) []store {
	out := make([]store, callers)
	for i := range out {
		out[i] = connStore{w.conns[i%len(w.conns)]}
	}
	return out
}

// runWire is the measured phase of wire-mixed. Phase A is a closed loop
// (callers parked on their replies) and gives every end-to-end figure.
// Phase B, in the traced run only, is an open loop at a fixed arrival
// rate, each request timed from the instant it was due — service plus
// honest queueing, not window ÷ throughput. Its latencies are driver.*
// diagnostics, not end-to-end metrics: between requests the two vCPUs
// halt, and what the median then measures is the hypervisor's wake-up
// time (30% run-to-run spread).
func (t *trial) runWire() error {
	s := t.spec
	w, err := dialWire(engine{t.db}, s.threads)
	if err != nil {
		return err
	}
	defer w.close()
	callers := s.threads * s.window

	var openOps int
	if t.openLoop {
		openOps = int(float64(s.openRate) * s.openSeconds)
	}
	t.newWorkers(t.genStreams(callers, openOps, 2), w.stores(callers))
	openLoop := t.workers
	t.newWorkers(t.genStreams(callers, s.ops, 1), w.stores(callers))
	t.res.markClockStart(t.db)

	c := startClock()
	t.closedLoop(c)
	t.res.ackS = c.since().Seconds()
	if err := t.drain(); err != nil {
		return err
	}
	c.stop(&t.res)
	t.res.ops = s.ops
	if !t.openLoop {
		return nil
	}

	// Phase B: request i is due at start + i/rate and belongs to caller
	// i mod callers (its keys are that caller's). One dispatcher hands
	// each request to its caller when it is due. A caller still busy
	// finds the request queued, and the wait counts, because latency
	// runs from the due time.
	period := time.Second / time.Duration(s.openRate)
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * period) }
	queues := make([]chan int, callers)
	var wg sync.WaitGroup
	for ci, wk := range openLoop {
		queues[ci] = make(chan int, len(wk.stream)) // never blocks the dispatcher
		wg.Add(1)
		go func(ci int, wk *worker) {
			defer wg.Done()
			for i := range queues[ci] {
				o := wk.stream[i/callers]
				wk.do(o)
				wk.lat[o.kind] = append(wk.lat[o.kind], uint32(time.Since(due(i))))
			}
		}(ci, wk)
	}
	lags := dispatch(openOps, due, queues)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if err := t.drain(); err != nil {
		return err
	}
	t.res.genLag = summarize(lags)
	t.res.openLat = summarizeKinds(openLoop)
	t.res.openLoopS = time.Since(start).Seconds()
	t.res.attempted += openOps
	return nil
}

// dispatch sends request i to queue i mod len(queues) at due(i) and
// returns how late each send was. It sleeps in the kernel on a thread of
// its own: a Go timer on an idle process fires up to a millisecond late
// (the runtime's poller waits in whole milliseconds), and a sender that
// spins instead keeps the scheduler from polling the sockets at all.
// Either would make the generator's lateness the latency being measured.
func dispatch(n int, due func(int) time.Time, queues []chan int) []uint32 {
	lags := make([]uint32, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Locked and never unlocked: the thread ends with this goroutine,
		// and the timer slack set on it ends with the thread.
		runtime.LockOSThread()
		const prSetTimerSlack = 29
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		for i := range lags {
			if wait := time.Until(due(i)); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&ts, nil)
			}
			lags[i] = uint32(time.Since(due(i)))
			queues[i%len(queues)] <- i
		}
	}()
	<-done
	return lags
}

// noopWire runs phase A's closed loop against the stub store and reports
// the round trip's median and the process CPU per op.
func (t *trial) noopWire() (rttP50us, cpuUsPerOp float64, err error) {
	s := t.spec
	value := make([]byte, s.valueLen)
	w, err := dialWire(noopStore{value}, s.threads)
	if err != nil {
		return 0, 0, err
	}
	defer w.close()
	callers := s.threads * s.window
	streams := t.genStreams(callers, s.ops, 3)
	stores := w.stores(callers)
	lat := make([][]uint32, callers)
	var res trialResult
	c := startClock()
	var wg sync.WaitGroup
	for ci := range streams {
		wg.Add(1)
		lat[ci] = make([]uint32, 0, len(streams[ci]))
		go func(ci int) {
			defer wg.Done()
			for _, o := range streams[ci] {
				key := t.ks.key(o.id)
				t0 := time.Now()
				var err error
				if o.kind == opPut {
					err = stores[ci].put(key, value)
				} else {
					_, err = stores[ci].get(key)
				}
				lat[ci] = append(lat[ci], uint32(time.Since(t0)))
				if err != nil {
					t.fail.add("noop wire: %v", err)
				}
			}
		}(ci)
	}
	wg.Wait()
	c.stop(&res)
	var all []uint32
	for _, l := range lat {
		all = append(all, l...)
	}
	return summarize(all).p50, res.cpuS * 1e6 / float64(s.ops), nil
}
