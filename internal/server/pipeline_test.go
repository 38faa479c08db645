package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"miodb/internal/core"
	"miodb/internal/kvstore"
)

type miodbStore struct{ *core.DB }

func (s miodbStore) Flush() error { return s.DB.FlushAll() }

// startPipelinedServer brings up a server over a fresh MioDB store and
// returns it with its address.
func startPipelinedServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	db, err := core.Open(core.Options{MemTableSize: 32 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(miodbStore{db}, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, addr.String()
}

// rawV2Conn is a test harness speaking protocol v2 by hand.
type rawV2Conn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialV2(t *testing.T, addr string) *rawV2Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(MagicV2[:]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawV2Conn{nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawV2Conn) send(t *testing.T, tag uint64, op byte, key, val []byte) {
	t.Helper()
	if _, err := c.nc.Write(AppendTaggedRequest(nil, tag, op, key, val)); err != nil {
		t.Fatal(err)
	}
}

func (c *rawV2Conn) recv(t *testing.T) (uint64, byte, []byte) {
	t.Helper()
	tag, status, payload, err := ReadTaggedResponse(c.br)
	if err != nil {
		t.Fatal(err)
	}
	return tag, status, payload
}

// TestTaggedInterleavedResponses sends a burst of tagged puts and gets
// in one shot and verifies every tag is answered exactly once with the
// payload belonging to that tag, regardless of the order responses come
// back in.
func TestTaggedInterleavedResponses(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{Window: 64})
	c := dialV2(t, addr)

	const n = 32
	// Phase 1: n tagged puts, distinct keys/values, written back to back.
	var burst []byte
	for i := 0; i < n; i++ {
		burst = AppendTaggedRequest(burst, uint64(100+i), OpPut,
			[]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("val-%02d", i)))
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		tag, status, payload := c.recv(t)
		if tag < 100 || tag >= 100+n {
			t.Fatalf("unknown tag %d", tag)
		}
		if seen[tag] {
			t.Fatalf("tag %d answered twice", tag)
		}
		seen[tag] = true
		if status != StatusOK {
			t.Fatalf("put tag %d: status %d (%s)", tag, status, payload)
		}
	}

	// Phase 2: n tagged gets in one burst; each response's payload must
	// match the key its tag asked for, however the responses interleave.
	burst = burst[:0]
	for i := 0; i < n; i++ {
		burst = AppendTaggedRequest(burst, uint64(500+i), OpGet,
			[]byte(fmt.Sprintf("key-%02d", i)), nil)
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tag, status, payload := c.recv(t)
		idx := int(tag - 500)
		if idx < 0 || idx >= n {
			t.Fatalf("unknown tag %d", tag)
		}
		if status != StatusOK {
			t.Fatalf("get tag %d: status %d", tag, status)
		}
		want := fmt.Sprintf("val-%02d", idx)
		if string(payload) != want {
			t.Fatalf("tag %d: payload %q, want %q (responses mismatched)", tag, payload, want)
		}
	}
}

// TestTaggedMixedOps exercises delete, scan, mput, and stats through the
// tagged framing on one connection.
func TestTaggedMixedOps(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{})
	c := dialV2(t, addr)

	ops := []kvstore.BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Value: []byte("3")},
	}
	c.send(t, 1, OpMPut, nil, EncodeBatchPayload(ops))
	if tag, status, payload := c.recv(t); tag != 1 || status != StatusOK {
		t.Fatalf("mput: tag=%d status=%d %s", tag, status, payload)
	}
	c.send(t, 2, OpDelete, []byte("b"), nil)
	if tag, status, _ := c.recv(t); tag != 2 || status != StatusOK {
		t.Fatalf("delete: tag=%d status=%d", tag, status)
	}
	c.send(t, 3, OpGet, []byte("b"), nil)
	if tag, status, _ := c.recv(t); tag != 3 || status != StatusNotFound {
		t.Fatalf("get deleted: tag=%d status=%d", tag, status)
	}
	var lim [4]byte
	lim[0] = 10
	c.send(t, 4, OpScan, []byte("a"), lim[:])
	tag, status, payload := c.recv(t)
	if tag != 4 || status != StatusOK {
		t.Fatalf("scan: tag=%d status=%d", tag, status)
	}
	pairs, err := DecodeScanPayload(payload)
	if err != nil || len(pairs) != 2 {
		t.Fatalf("scan pairs = %d, %v", len(pairs), err)
	}
	c.send(t, 5, OpStats, nil, nil)
	tag, status, payload = c.recv(t)
	if tag != 5 || status != StatusOK {
		t.Fatalf("stats: tag=%d status=%d", tag, status)
	}
	if !bytes.Contains(payload, []byte("puts=")) {
		t.Fatalf("stats payload: %q", payload)
	}
	// The server's per-op service histograms cover the ops just issued.
	for _, want := range []string{"lat_mput_p50_us=", "lat_delete_p99_us=", "lat_get_p999_us="} {
		if !strings.Contains(string(payload), want) {
			t.Errorf("stats payload missing %s: %q", want, payload)
		}
	}
	// Malformed: empty key put is rejected per-request, connection lives.
	c.send(t, 6, OpPut, nil, []byte("v"))
	if tag, status, _ := c.recv(t); tag != 6 || status != StatusError {
		t.Fatalf("empty-key put: tag=%d status=%d", tag, status)
	}
	c.send(t, 7, OpGet, []byte("a"), nil)
	if tag, status, payload := c.recv(t); tag != 7 || status != StatusOK || string(payload) != "1" {
		t.Fatalf("conn dead after per-request error: tag=%d status=%d %q", tag, status, payload)
	}
}

// TestBackpressureSlowConsumer verifies the backpressure contract: a
// client that stops reading responses fills its window and stops being
// served, while other connections keep full service.
func TestBackpressureSlowConsumer(t *testing.T) {
	const window = 8
	_, addr := startPipelinedServer(t, Options{Window: window})

	// The slow consumer: sends far more requests than the window, never
	// reads a response.
	slow := dialV2(t, addr)
	var burst []byte
	for i := 0; i < window*20; i++ {
		burst = AppendTaggedRequest(burst, uint64(i), OpPut,
			[]byte(fmt.Sprintf("slow-%04d", i)), bytes.Repeat([]byte("x"), 1024))
	}
	// The burst may not even fully enter the socket once the server
	// stops reading; write what fits without blocking the test.
	slow.nc.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	slow.nc.Write(burst)

	// A healthy connection must see normal service while the slow one
	// is wedged.
	healthy := dialV2(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 200; i++ {
		if time.Now().After(deadline) {
			t.Fatal("healthy connection starved by slow consumer")
		}
		tag := uint64(1000 + i)
		healthy.send(t, tag, OpPut, []byte(fmt.Sprintf("ok-%04d", i)), []byte("v"))
		gotTag, status, payload := healthy.recv(t)
		if gotTag != tag || status != StatusOK {
			t.Fatalf("healthy op %d: tag=%d status=%d %s", i, gotTag, status, payload)
		}
	}
}

// slowStore delays every commit so Close always races with in-flight
// writes deterministically.
type slowStore struct {
	kvstore.Store
	delay time.Duration
}

func (s slowStore) WriteBatch(ops []kvstore.BatchOp) error {
	time.Sleep(s.delay)
	if bw, ok := s.Store.(kvstore.BatchWriter); ok {
		return bw.WriteBatch(ops)
	}
	for _, op := range ops {
		if op.Delete {
			if err := s.Store.Delete(op.Key); err != nil {
				return err
			}
		} else if err := s.Store.Put(op.Key, op.Value); err != nil {
			return err
		}
	}
	return nil
}

// TestGracefulCloseDrainsInFlight issues requests whose commits are
// artificially slow, closes the server while they are in flight, and
// checks every already-admitted request still gets its tagged response
// before the connection dies.
func TestGracefulCloseDrainsInFlight(t *testing.T) {
	db, err := core.Open(core.Options{MemTableSize: 32 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewWithOptions(slowStore{Store: miodbStore{db}, delay: 50 * time.Millisecond},
		Options{Window: 16, DrainTimeout: 5 * time.Second})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialV2(t, addr.String())
	const n = 8
	var burst []byte
	for i := 0; i < n; i++ {
		burst = AppendTaggedRequest(burst, uint64(i), OpPut,
			[]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Give the reader a moment to admit the burst, then close while the
	// slow commits are still running.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Every admitted request must complete with a real response.
	got := 0
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for got < n {
		_, status, payload, err := ReadTaggedResponse(c.br)
		if err != nil {
			t.Fatalf("after %d/%d responses: %v", got, n, err)
		}
		if status != StatusOK {
			t.Fatalf("response %d: status=%d %s", got, status, payload)
		}
		got++
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	// All acknowledged writes are in the store.
	for i := 0; i < n; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || string(v) != "v" {
			t.Fatalf("acked k%d lost: %q %v", i, v, err)
		}
	}
	// And the listener is gone.
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Error("listener still accepting after Close")
	}
}

// commitChecker sits between the batcher and the store and checks what
// the batcher's reused merge slice could break: the operations of one
// commit must not change while the store has them, an MPUT's operations
// must arrive whole and adjacent in one commit, and (through committed) a
// reply must not precede the commit that carries its operation.
type commitChecker struct {
	kvstore.Store
	mu   sync.Mutex
	done map[string]bool // keys whose commit has returned
	errs []string
}

func (cc *commitChecker) fail(format string, args ...any) {
	cc.mu.Lock()
	cc.errs = append(cc.errs, fmt.Sprintf(format, args...))
	cc.mu.Unlock()
}

func (cc *commitChecker) committed(key string) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.done[key]
}

func (cc *commitChecker) WriteBatch(ops []kvstore.BatchOp) error {
	seen := make([]string, len(ops))
	for i, op := range ops {
		seen[i] = string(op.Key) + "=" + string(op.Value)
	}
	// An MPUT's keys end in -m0, -m1, -m2.
	for i := 0; i < len(ops); i++ {
		k := string(ops[i].Key)
		if !strings.HasSuffix(k, "-m0") {
			if strings.Contains(k, "-m") { // a whole batch is skipped below
				cc.fail("commit of %d ops: %s arrived without the head of its batch", len(ops), k)
			}
			continue
		}
		for j := 1; j <= 2; j++ {
			want := fmt.Sprintf("%s-m%d", strings.TrimSuffix(k, "-m0"), j)
			if i+j >= len(ops) || string(ops[i+j].Key) != want {
				cc.fail("commit of %d ops: batch %s split or reordered at op %d", len(ops), k, i+j)
			}
		}
		i += 2
	}
	err := cc.Store.(kvstore.BatchWriter).WriteBatch(ops)
	cc.mu.Lock()
	for i, op := range ops {
		if got := string(op.Key) + "=" + string(op.Value); got != seen[i] {
			cc.errs = append(cc.errs, fmt.Sprintf("op %d changed under the store: %s, was %s", i, got, seen[i]))
		}
		cc.done[string(op.Key)] = true
	}
	cc.mu.Unlock()
	return err
}

// TestCrossConnectionCoalescing drives concurrent single-Put and small
// MPUT traffic from many pipelined connections and checks the shared
// batcher merged them: the store's commit accounting must show
// multi-record commits even though most client requests carried exactly
// one record. The merges reuse one slice, so it also checks (see
// commitChecker) that every submission stays atomic and that no reply
// overtakes its commit.
func TestCrossConnectionCoalescing(t *testing.T) {
	db, err := core.Open(core.Options{MemTableSize: 256 << 10, Levels: 3, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cc := &commitChecker{Store: miodbStore{db}, done: map[string]bool{}}
	srv := New(cc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const conns = 8
	const depth = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errCh := make(chan error, conns*depth)
	for g := 0; g < conns; g++ {
		c := dialV2(t, addr.String())
		var tags sync.Mutex
		next := uint64(0)
		lastKey := map[uint64]string{} // tag → the last key its request writes
		// depth workers share the connection; a private reader fan-in
		// distributes responses (tags are per-connection here).
		respCh := make(chan tresp, depth*perWorker)
		go func() {
			for {
				tag, status, payload, err := ReadTaggedResponse(c.br)
				if err != nil {
					return
				}
				tags.Lock()
				key := lastKey[tag]
				tags.Unlock()
				if status == StatusOK && !cc.committed(key) {
					status, payload = StatusError, []byte("reply for "+key+" overtook its commit")
				}
				respCh <- tresp{status: status, payload: payload}
			}
		}()
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func(g, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					key := fmt.Sprintf("c%dw%d-%04d", g, w, i)
					op, val, last := OpPut, []byte("v"), key
					if i%8 == 7 {
						last = key + "-m2"
						op, key, val = OpMPut, "", EncodeBatchPayload([]kvstore.BatchOp{
							{Key: []byte(key + "-m0"), Value: []byte("v")},
							{Key: []byte(key + "-m1"), Value: []byte("v")},
							{Key: []byte(last), Value: []byte("v")},
						})
					}
					tags.Lock()
					next++
					lastKey[next] = last
					_, err := c.nc.Write(AppendTaggedRequest(nil, next, op, []byte(key), val))
					tags.Unlock()
					if err != nil {
						errCh <- err
						return
					}
					r := <-respCh
					if r.status != StatusOK {
						errCh <- fmt.Errorf("status %d: %s", r.status, r.payload)
						return
					}
				}
			}(g, w)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for _, e := range cc.errs {
		t.Error(e)
	}
	st := db.Stats()
	if st.WriteGroups == 0 {
		t.Fatal("no write groups recorded")
	}
	mean := float64(st.GroupedWrites) / float64(st.WriteGroups)
	t.Logf("server-fed commits: %d records in %d commits (mean %.2f)",
		st.GroupedWrites, st.WriteGroups, mean)
	if mean < 1.5 {
		t.Errorf("mean group size %.2f: cross-connection batcher produced no coalescing", mean)
	}
}

// TestBadMagicRejected checks that a connection whose first four bytes
// are not the magic — a corrupt magic, or a request frame of the old
// lockstep protocol, which had no preamble — gets no reply and is closed,
// without wedging the server.
func TestBadMagicRejected(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{})
	v1Get := appendFrame(appendFrame([]byte{OpGet}, []byte("k")), nil) // op | keyLen | key | valLen
	for _, tc := range []struct {
		name  string
		first []byte
	}{
		{"corrupt_magic", []byte{'M', 'I', 'O', 'X'}},
		{"v1_get_frame", v1Get},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.Write(tc.first)
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(nc)
			if len(got) != 0 {
				t.Errorf("server answered %q", got)
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Error("server kept the connection open")
			}
			// The server still serves new connections.
			c := dialV2(t, addr)
			c.send(t, 1, OpPut, []byte("k"), []byte("v"))
			if tag, status, payload := c.recv(t); tag != 1 || status != StatusOK {
				t.Fatalf("put after rejected connection: tag=%d status=%d %s", tag, status, payload)
			}
		})
	}
}
