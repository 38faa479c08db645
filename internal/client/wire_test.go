package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"miodb/internal/kvstore"
	"miodb/internal/server"
	"miodb/internal/stats"
)

// noopStore answers every request without doing anything, so what a
// test or benchmark measures is the wire front end alone.
type noopStore struct{ value []byte }

func (noopStore) Put(_, _ []byte) error                                { return nil }
func (n noopStore) Get(_ []byte) ([]byte, error)                       { return n.value, nil }
func (noopStore) Delete(_ []byte) error                                { return nil }
func (noopStore) Scan(_ []byte, _ int, _ func(_, _ []byte) bool) error { return nil }
func (noopStore) Flush() error                                         { return nil }
func (noopStore) Stats() stats.Snapshot                                { return stats.Snapshot{} }
func (noopStore) Close() error                                         { return nil }
func (noopStore) WriteBatch(_ []kvstore.BatchOp) error                 { return nil }

// countingConn counts the socket calls a Conn makes.
type countingConn struct {
	net.Conn
	writes, reads atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// dialNoop connects a Conn, through a countingConn, to a fresh server
// over a store that does nothing.
func dialNoop(tb testing.TB, opts Options) (*Conn, *countingConn) {
	tb.Helper()
	srv := server.New(noopStore{value: make([]byte, 128)})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c, err := newConn(cc, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c, cc
}

// roundTrips runs a closed loop of callers, each alternating Put and
// Get, n requests in all, and returns the socket writes and reads they
// cost the client.
func roundTrips(tb testing.TB, c *Conn, cc *countingConn, callers, n int) (writes, reads int64) {
	value := make([]byte, 128)
	w0, r0 := cc.writes.Load(), cc.reads.Load()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("caller-%02d-key", w))
			for i := w; i < n; i += callers {
				var err error
				if i%2 == 0 {
					err = c.Put(key, value)
				} else {
					_, err = c.Get(key)
				}
				if err != nil {
					tb.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return cc.writes.Load() - w0, cc.reads.Load() - r0
}

// TestClientWriteCoalescing checks the caller → writer hand-off from the
// socket's side: 16 callers in flight cost under 0.6 socket writes per
// request, and a caller alone costs exactly one — the writer yields for
// company only when there is some.
func TestClientWriteCoalescing(t *testing.T) {
	c, cc := dialNoop(t, Options{})
	const n = 4000
	if writes, _ := roundTrips(t, c, cc, 1, n); writes != n {
		t.Errorf("one caller: %d socket writes for %d requests, want exactly one each", writes, n)
	}
	writes, reads := roundTrips(t, c, cc, 16, n)
	t.Logf("16 callers: %.3f socket writes and %.3f reads per request", float64(writes)/n, float64(reads)/n)
	if float64(writes)/n >= 0.6 {
		t.Errorf("16 callers: %.3f socket writes per request, want under 0.6", float64(writes)/n)
	}
}

// scriptedServer is the far end of a net.Pipe: it consumes the magic and
// then lets a test read request tags and write reply bytes in whatever
// pieces it likes. A pipe hands a reader at most what one Write carried,
// so the test decides exactly what each client socket read sees.
type scriptedServer struct {
	nc net.Conn
	br *bufio.Reader
}

func newScriptedServer(t *testing.T, opts Options) (*Conn, *scriptedServer) {
	t.Helper()
	near, far := net.Pipe()
	s := &scriptedServer{nc: far, br: bufio.NewReader(far)}
	ready := make(chan error, 1)
	go func() {
		var magic [4]byte
		_, err := io.ReadFull(s.br, magic[:])
		if err == nil && magic != server.MagicV2 {
			err = fmt.Errorf("magic %q", magic)
		}
		ready <- err
	}()
	c, err := newConn(near, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		far.Close()
		c.Close()
	})
	return c, s
}

// nextTag reads one request frame and returns its tag and key.
func (s *scriptedServer) nextTag(t *testing.T) (uint64, []byte) {
	t.Helper()
	var hdr [13]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	key := make([]byte, binary.LittleEndian.Uint32(hdr[9:]))
	if _, err := io.ReadFull(s.br, key); err != nil {
		t.Fatal(err)
	}
	var vl [4]byte
	if _, err := io.ReadFull(s.br, vl[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.br.Discard(int(binary.LittleEndian.Uint32(vl[:]))); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(hdr[:8]), key
}

// reply encodes one StatusOK response frame.
func reply(dst []byte, tag uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tag)
	dst = append(dst, server.StatusOK)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// TestSplitAndBurstReplies drives the buffered reader with the two
// shapes a socket read can take that the unbuffered one never saw: a
// reply cut across two reads (at every offset), and 64 replies arriving
// in one read, out of request order. Every tag must resolve to its own
// payload.
func TestSplitAndBurstReplies(t *testing.T) {
	c, s := newScriptedServer(t, Options{Window: 64})

	for cut := 1; cut < 13+5; cut++ {
		got := make(chan []byte, 1)
		go func() {
			v, err := c.Get([]byte("split"))
			if err != nil {
				t.Error(err)
			}
			got <- v
		}()
		tag, _ := s.nextTag(t)
		frame := reply(nil, tag, []byte("whole"))
		for _, piece := range [][]byte{frame[:cut], frame[cut:]} {
			if _, err := s.nc.Write(piece); err != nil {
				t.Fatal(err)
			}
		}
		if v := <-got; string(v) != "whole" {
			t.Fatalf("reply cut at byte %d: got %q", cut, v)
		}
	}

	const burst = 64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("burst-%02d", i))
			if v, err := c.Get(key); err != nil || !bytes.Equal(v, key) {
				t.Errorf("caller %d: got %q, %v", i, v, err)
			}
		}(i)
	}
	var frames [burst][]byte
	for i := range frames {
		tag, key := s.nextTag(t)
		frames[i] = reply(nil, tag, key) // each caller gets its own key back
	}
	var all []byte
	for i := burst - 1; i >= 0; i-- {
		all = append(all, frames[i]...)
	}
	if _, err := s.nc.Write(all); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// BenchmarkRoundTrip prices one request through the whole front end —
// client, loopback socket, server, a store that does nothing — in a
// closed loop of 1 and of 16 callers on one connection, and reports the
// socket calls each request cost the client. `make bench-wire` runs it
// and leaves a CPU profile under profiles/.
func BenchmarkRoundTrip(b *testing.B) {
	for _, callers := range []int{1, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			c, cc := dialNoop(b, Options{})
			roundTrips(b, c, cc, callers, 2000) // connection, pools and buffers warm
			b.ReportAllocs()
			b.ResetTimer()
			writes, reads := roundTrips(b, c, cc, callers, b.N)
			b.StopTimer()
			b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
		})
	}
}
