package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"miodb/internal/kvstore"
	"miodb/internal/stats"
)

// noopStore answers every request without doing anything, so a test
// measures the front end alone.
type noopStore struct{}

func (noopStore) Put(_, _ []byte) error                                { return nil }
func (noopStore) Get(_ []byte) ([]byte, error)                         { return []byte("value"), nil }
func (noopStore) Delete(_ []byte) error                                { return nil }
func (noopStore) Scan(_ []byte, _ int, _ func(_, _ []byte) bool) error { return nil }
func (noopStore) Flush() error                                         { return nil }
func (noopStore) Stats() stats.Snapshot                                { return stats.Snapshot{} }
func (noopStore) Close() error                                         { return nil }
func (noopStore) WriteBatch(_ []kvstore.BatchOp) error                 { return nil }

// TestBatcherCommitAllocation pins the cost of a merged commit: the
// batcher lays a burst's operations end to end in a slice it keeps, so a
// commit allocates next to nothing. (It once sized a fresh slice to
// maxBatchOps for every merge: 229 KB to commit three operations.)
func TestBatcherCommitAllocation(t *testing.T) {
	b := newBatcher(noopStore{}, 4096)
	defer b.stop()
	const burst = 8
	srv := New(noopStore{})
	defer srv.Close()
	c := srv.newConn(nil) // no socket: the test admits, and frees the window as the write loop would
	subs := make([]submission, burst)
	for i := range subs {
		subs[i] = submission{c: c, tag: uint64(i), op: kvstore.BatchOp{Key: []byte("key"), Value: []byte("value")}}
	}
	round := func() {
		for range subs {
			if !c.admit(false) {
				t.Fatal("admission refused")
			}
		}
		b.submit(subs...)
		for i := 0; i < burst; i++ {
			if r := <-c.writeCh; r.status != StatusOK {
				t.Fatalf("submission %d: status %d (%s)", i, r.status, r.payload)
			}
			<-c.window
		}
	}
	round() // grow the queue and the merge slice to this burst's size

	// MemStats counts the whole process, so another test's leftover
	// goroutine can only add to a reading: the lowest of a few decides.
	const commits = 200
	lowest := uint64(1 << 62)
	for attempt := 0; attempt < 5 && lowest >= 1024; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < commits; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		lowest = min(lowest, (after.TotalAlloc-before.TotalAlloc)/commits)
	}
	if lowest >= 1024 {
		t.Errorf("a merged commit of %d operations allocates %d bytes, want under 1 KB", burst, lowest)
	}
}

// countingListener counts the socket writes of the connections it
// accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// muxClient shares one hand-driven v2 connection among callers, each
// parked on its own reply, with one socket write per request — so the
// only coalescing in play is the server's.
type muxClient struct {
	nc      net.Conn
	mu      sync.Mutex
	next    uint64
	waiters map[uint64]chan tresp
}

func newMuxClient(t *testing.T, addr string) *muxClient {
	c := dialV2(t, addr)
	m := &muxClient{nc: c.nc, waiters: map[uint64]chan tresp{}}
	go func() {
		br := bufio.NewReaderSize(c.nc, 64<<10)
		for {
			tag, status, payload, err := ReadTaggedResponse(br)
			if err != nil {
				return
			}
			m.mu.Lock()
			ch := m.waiters[tag]
			delete(m.waiters, tag)
			m.mu.Unlock()
			ch <- tresp{tag: tag, status: status, payload: payload}
		}
	}()
	return m
}

func (m *muxClient) do(op byte, key, val []byte) (tresp, error) {
	ch := make(chan tresp, 1)
	m.mu.Lock()
	m.next++
	m.waiters[m.next] = ch
	_, err := m.nc.Write(AppendTaggedRequest(nil, m.next, op, key, val))
	m.mu.Unlock()
	if err != nil {
		return tresp{}, err
	}
	return <-ch, nil
}

// TestServerWriteCoalescing checks the completion → writer hand-off from
// the socket's side: with 16 callers in flight on a connection the server
// answers in bursts (under 0.6 socket writes per request), and a caller
// alone gets exactly one write per request — its response never waits.
func TestServerWriteCoalescing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := New(noopStore{})
	addr := srv.serveOn(cl).String()
	defer srv.Close()

	run := func(callers, perCaller int) float64 {
		m := newMuxClient(t, addr)
		before := cl.writes.Load()
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					op, val := OpPut, []byte("value")
					if i%2 == 1 {
						op, val = OpGet, nil
					}
					r, err := m.do(op, []byte(fmt.Sprintf("w%02d-%04d", w, i)), val)
					if err != nil || r.status != StatusOK {
						t.Errorf("caller %d op %d: status %d, %v", w, i, r.status, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(cl.writes.Load()-before) / float64(callers*perCaller)
	}

	if got := run(1, 500); got != 1 {
		t.Errorf("one caller: %.3f socket writes per request, want exactly 1", got)
	}
	if got := run(16, 500); got >= 0.6 {
		t.Errorf("16 callers: %.3f socket writes per request, want under 0.6", got)
	} else {
		t.Logf("16 callers: %.3f socket writes per request", got)
	}
}
