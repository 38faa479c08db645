// External test package: internal/client imports internal/server, so a
// test that drives the server through the client must live outside
// package server to avoid an import cycle.
package server_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"miodb/internal/client"
	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/server"
	"miodb/internal/shard"
	"miodb/internal/stats"
)

// coreStore adapts *core.DB to the harness store contract (FlushAll
// drains background compaction too).
type coreStore struct{ *core.DB }

func (s coreStore) Flush() error { return s.DB.FlushAll() }

// openCore opens a small single-engine store.
func openCore(t *testing.T) kvstore.Store {
	t.Helper()
	db, err := core.Open(core.Options{MemTableSize: 16 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	return coreStore{db}
}

// openShards opens a small four-shard store.
func openShards(t *testing.T) kvstore.Store {
	t.Helper()
	r, err := shard.Open(4, core.Options{MemTableSize: 16 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// serve starts a server over store and returns it with its address; the
// server and then the store are closed with the test.
func serve(t *testing.T, store kvstore.Store) (*server.Server, string) {
	t.Helper()
	srv := server.New(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv, addr.String()
}

// dial opens a client connection that is closed with the test.
func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerScan(t *testing.T) {
	_, addr := serve(t, openCore(t))
	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := c.Scan([]byte("k010"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("Scan returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		wantK := fmt.Sprintf("k%03d", 10+i)
		if string(p[0]) != wantK || string(p[1]) != fmt.Sprintf("v%d", 10+i) {
			t.Fatalf("pair %d = %s=%s", i, p[0], p[1])
		}
	}
	// Empty scan result.
	pairs, err = c.Scan([]byte("z"), 10)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty scan: %d pairs, %v", len(pairs), err)
	}
}

func TestServerStats(t *testing.T) {
	_, addr := serve(t, openCore(t))
	c := dial(t, addr)
	c.Put([]byte("k"), []byte("v"))
	c.Get([]byte("k"))
	line, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"puts=1", "gets=1", "lat_put_p50_us="} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line missing %s: %q", want, line)
		}
	}
}

// TestConcurrentClients runs one connection per goroutine, so the
// server's connections, not one connection's window, carry the load.
func TestConcurrentClients(t *testing.T) {
	_, addr := serve(t, openCore(t))

	const clients = 4
	const perClient = 200
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := []byte(fmt.Sprintf("c%d-k%04d", g, i))
				if err := c.Put(k, []byte("v")); err != nil {
					errCh <- err
					return
				}
				if v, err := c.Get(k); err != nil || string(v) != "v" {
					errCh <- fmt.Errorf("get %s: %q %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestClientMPut(t *testing.T) {
	_, addr := serve(t, openCore(t))
	c := dial(t, addr)

	ops := []kvstore.BatchOp{
		{Key: []byte("m1"), Value: []byte("v1")},
		{Key: []byte("m2"), Value: []byte("v2")},
		{Key: []byte("m3"), Value: []byte("v3")},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		v, err := c.Get(op.Key)
		if err != nil || !bytes.Equal(v, op.Value) {
			t.Fatalf("Get(%s) = %q, %v", op.Key, v, err)
		}
	}
	// A batch mixing writes and deletes applies in order.
	if err := c.Batch([]kvstore.BatchOp{
		{Key: []byte("m1"), Value: []byte("v1b")},
		{Key: []byte("m2"), Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("m1")); err != nil || string(v) != "v1b" {
		t.Fatalf("Get(m1) = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("m2")); err != kvstore.ErrNotFound {
		t.Fatalf("Get(m2) after batched delete = %v", err)
	}
	// Empty batch is a no-op.
	if err := c.Batch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMPutClients(t *testing.T) {
	_, addr := serve(t, openCore(t))

	const clients = 4
	const batches = 40
	const batchSize = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ops := make([]kvstore.BatchOp, batchSize)
				for i := range ops {
					ops[i] = kvstore.BatchOp{
						Key:   []byte(fmt.Sprintf("c%d-b%03d-k%d", g, b, i)),
						Value: []byte(fmt.Sprintf("v%d.%d.%d", g, b, i)),
					}
				}
				if err := c.Batch(ops); err != nil {
					errCh <- fmt.Errorf("client %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Every batched write from every client is visible.
	c := dial(t, addr)
	for g := 0; g < clients; g++ {
		for b := 0; b < batches; b++ {
			for i := 0; i < batchSize; i++ {
				k := fmt.Sprintf("c%d-b%03d-k%d", g, b, i)
				want := fmt.Sprintf("v%d.%d.%d", g, b, i)
				v, err := c.Get([]byte(k))
				if err != nil || string(v) != want {
					t.Fatalf("Get(%s) = %q, %v (want %q)", k, v, err, want)
				}
			}
		}
	}
}

func TestServerCloseIsClean(t *testing.T) {
	srv, addr := serve(t, openCore(t))
	c := dial(t, addr)
	c.Put([]byte("k"), []byte("v"))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored")
	}
	// Requests after close fail at the transport level.
	if err := c.Put([]byte("k2"), []byte("v")); err == nil {
		t.Error("Put after server close succeeded")
	}
}

// TestServerOverShardedStore serves a shard router instead of a single
// engine — the Store interface is the seam, so the server needs no
// changes — and checks the whole client surface plus the sharded stats
// extension (partition count and per-shard op tallies).
func TestServerOverShardedStore(t *testing.T) {
	_, addr := serve(t, openShards(t))
	c := dial(t, addr)

	for i := 0; i < 100; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := c.Get([]byte("k042")); err != nil || string(v) != "v42" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// MPUT routes through the router's batch splitter.
	batch := make([]kvstore.BatchOp, 0, 20)
	for i := 100; i < 120; i++ {
		batch = append(batch, kvstore.BatchOp{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("b")})
	}
	if err := c.Batch(batch); err != nil {
		t.Fatal(err)
	}
	// The scan is served by the merged cross-shard iterator: globally
	// ordered despite keys living on four engines.
	pairs, err := c.Scan([]byte("k"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 120 {
		t.Fatalf("scan returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if want := fmt.Sprintf("k%03d", i); string(p[0]) != want {
			t.Fatalf("pair %d = %q, want %q", i, p[0], want)
		}
	}
	line, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "shards=4") {
		t.Errorf("stats line missing shards=4: %q", line)
	}
	for i := 0; i < 4; i++ {
		if !strings.Contains(line, fmt.Sprintf("shard%d_ops=", i)) {
			t.Errorf("stats line missing shard%d_ops: %q", i, line)
		}
	}
}

// hugeStore answers a Scan with one shared 1 MB value 65 times and an
// MGET with it 65 times over: either reply passes the 64 MB frame limit.
type hugeStore struct{ value []byte }

func (h hugeStore) Put(key, value []byte) error    { return nil }
func (h hugeStore) Get(key []byte) ([]byte, error) { return []byte("small"), nil }
func (h hugeStore) Delete(key []byte) error        { return nil }
func (h hugeStore) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	for i := 0; i < 65; i++ {
		if !fn([]byte(fmt.Sprintf("k%02d", i)), h.value) {
			break
		}
	}
	return nil
}
func (h hugeStore) GetMulti(keys [][]byte) ([][]byte, []error) {
	values := make([][]byte, len(keys))
	for i := range values {
		values[i] = h.value
	}
	return values, make([]error, len(keys))
}
func (h hugeStore) Flush() error          { return nil }
func (h hugeStore) Stats() stats.Snapshot { return stats.Snapshot{} }
func (h hugeStore) Close() error          { return nil }

// TestOversizeReplyRefused checks that a SCAN or MGET whose reply would
// pass the frame limit is answered with an error, and that the
// connection survives it: the client refuses an oversize frame by
// failing the whole connection, so the server must never send one.
func TestOversizeReplyRefused(t *testing.T) {
	_, addr := serve(t, hugeStore{value: make([]byte, 1<<20)})
	c := dial(t, addr)
	if pairs, err := c.Scan(nil, 0); err == nil || !strings.Contains(err.Error(), "exceeds frame limit") {
		t.Fatalf("oversize scan = %d pairs, %v; want a frame-limit error", len(pairs), err)
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "small" {
		t.Fatalf("Get after oversize scan = %q, %v", v, err)
	}
	keys := make([][]byte, 65)
	for i := range keys {
		keys[i] = []byte("k")
	}
	if _, errs := c.GetMulti(keys); errs[0] == nil || !strings.Contains(errs[0].Error(), "exceeds frame limit") {
		t.Fatalf("oversize mget err = %v; want a frame-limit error", errs[0])
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "small" {
		t.Fatalf("Get after oversize mget = %q, %v", v, err)
	}
}
