// Package client is the network client for the miodb server
// (internal/server): many requests in flight per connection, responses
// matched to requests by tag.
//
// A Conn multiplexes any number of goroutines over one TCP connection:
// each call claims a window slot and a fresh tag, encodes its frame
// straight into the connection's outgoing buffer (which the writer sends
// whole, so one socket write carries every request that was ready), and
// parks until the reader delivers the response bearing its tag — so N
// callers see N concurrent round trips over one socket instead of N
// sockets or N serialized round trips.
package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"

	"miodb/internal/kvstore"
	"miodb/internal/server"
)

// Options tunes a connection.
type Options struct {
	// Window caps in-flight requests per connection; a caller beyond
	// the window blocks until a response frees a slot. Default 64.
	Window int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 64
	}
	return o
}

// tresp is a matched response.
type tresp struct {
	status  byte
	payload []byte
}

// replies recycles the one-slot channels callers park on. A channel
// goes back only after its caller received the reply: the reader sends
// at most once per registered tag, so the channel is then empty and
// unreferenced. A caller that gives up leaves its channel to the
// collector, because the reader may still deliver into it.
var replies = sync.Pool{New: func() any { return make(chan tresp, 1) }}

// Conn is one connection. All methods are safe for concurrent
// use by any number of goroutines.
type Conn struct {
	nc     net.Conn
	window chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan tresp
	nextTag uint64
	err     error // terminal transport error, set once under mu

	// The hand-off to the writer: callers append whole frames to out and
	// the writer takes the lot, leaving its own emptied buffer behind.
	outMu   sync.Mutex
	out     []byte
	frames  int           // frames in out
	outWake chan struct{} // cap 1: out went from empty to not

	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup
}

// Dial connects and sends the protocol preamble.
func Dial(addr string, opts Options) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(nc, opts)
}

// newConn sends the protocol preamble over an established transport,
// which it owns from here on (and closes on failure).
func newConn(nc net.Conn, opts Options) (*Conn, error) {
	opts = opts.withDefaults()
	if _, err := nc.Write(server.MagicV2[:]); err != nil {
		nc.Close()
		return nil, err
	}
	c := &Conn{
		nc:      nc,
		window:  make(chan struct{}, opts.Window),
		pending: make(map[uint64]chan tresp),
		outWake: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// fail latches the first transport error and wakes every waiter.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	c.nc.Close()
}

// Err returns the terminal transport error, if any.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; in-flight calls return an error.
func (c *Conn) Close() error {
	c.fail(fmt.Errorf("client: closed"))
	c.wg.Wait()
	return nil
}

// send encodes one request frame into the outgoing buffer and wakes the
// writer if the buffer was empty.
func (c *Conn) send(tag uint64, op byte, key, val []byte) {
	c.outMu.Lock()
	c.out = server.AppendTaggedRequest(c.out, tag, op, key, val)
	c.frames++
	first := c.frames == 1
	c.outMu.Unlock()
	if first {
		select {
		case c.outWake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// queued returns how many frames await the writer.
func (c *Conn) queued() int {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	return c.frames
}

// takeOut trades the writer's emptied buffer for everything callers have
// queued.
func (c *Conn) takeOut(empty []byte) []byte {
	c.outMu.Lock()
	out := c.out
	c.out, c.frames = empty, 0
	c.outMu.Unlock()
	return out
}

// writeLoop sends whatever callers have queued in one socket write —
// with many callers in flight, one syscall carries many requests.
func (c *Conn) writeLoop() {
	defer c.wg.Done()
	var buf []byte
	for {
		select {
		case <-c.outWake:
		case <-c.done:
			return
		}
		// A single frame while other calls hold window slots: they are
		// likely a scheduler slice from sending too (a burst of replies
		// wakes its callers in a row), so yield once before taking rather
		// than pay one write per request. Gated so that a lone caller
		// never donates its slice.
		if c.queued() == 1 && len(c.window) > 1 {
			runtime.Gosched()
		}
		buf = c.takeOut(buf[:0])
		if len(buf) == 0 {
			continue // an earlier take already sent what this wake-up announced
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.fail(err)
			return
		}
	}
}

// readLoop matches tagged responses (possibly out of request order) to
// their parked callers. It reads the socket through a buffer, so one
// read delivers every reply the server sent in one write.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		tag, status, payload, err := server.ReadTaggedResponse(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[tag]
		delete(c.pending, tag)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("client: response for unknown tag %d", tag))
			return
		}
		ch <- tresp{status: status, payload: payload}
	}
}

// do runs one pipelined round trip.
func (c *Conn) do(op byte, key, val []byte) (byte, []byte, error) {
	select {
	case c.window <- struct{}{}:
	case <-c.done:
		return 0, nil, c.Err()
	}
	defer func() { <-c.window }()

	ch := replies.Get().(chan tresp)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		replies.Put(ch) // never registered
		return 0, nil, err
	}
	c.nextTag++
	tag := c.nextTag
	c.pending[tag] = ch
	c.mu.Unlock()

	c.send(tag, op, key, val)
	select {
	case r := <-ch:
		replies.Put(ch)
		return r.status, r.payload, nil
	case <-c.done:
		// The reader may have delivered concurrently with teardown.
		select {
		case r := <-ch:
			return r.status, r.payload, nil
		default:
		}
		c.abandon(tag)
		return 0, nil, c.Err()
	}
}

// abandon forgets a tag whose caller gave up.
func (c *Conn) abandon(tag uint64) {
	c.mu.Lock()
	delete(c.pending, tag)
	c.mu.Unlock()
}

// serverError maps a StatusError payload back onto the repository's
// sentinel errors, so errors.Is(err, kvstore.ErrDegraded) (and friends)
// holds on the client side exactly as it does in-process. The wire
// carries only the error text, so the match is on the sentinel's
// message — those strings are pinned in internal/kvstore precisely to
// keep this round trip stable. Unrecognized payloads stay plain
// "server: ..." errors.
func serverError(payload []byte) error {
	text := string(payload)
	for _, sentinel := range []error{
		kvstore.ErrDegraded,
		kvstore.ErrSnapshotUnsupported,
		kvstore.ErrValueLogCorrupt,
		kvstore.ErrClosed,
	} {
		if strings.Contains(text, sentinel.Error()) {
			return &wireError{text: "server: " + text, sentinel: sentinel}
		}
	}
	return fmt.Errorf("server: %s", text)
}

// wireError carries the server's full error text (which may include
// context beyond the sentinel, e.g. the degraded store's latched cause)
// while unwrapping to the matched sentinel.
type wireError struct {
	text     string
	sentinel error
}

func (e *wireError) Error() string { return e.text }
func (e *wireError) Unwrap() error { return e.sentinel }

// Get fetches the newest value for key; kvstore.ErrNotFound if absent.
func (c *Conn) Get(key []byte) ([]byte, error) {
	status, payload, err := c.do(server.OpGet, key, nil)
	if err != nil {
		return nil, err
	}
	switch status {
	case server.StatusOK:
		return payload, nil
	case server.StatusNotFound:
		return nil, kvstore.ErrNotFound
	default:
		return nil, serverError(payload)
	}
}

// Put stores a key-value pair.
func (c *Conn) Put(key, value []byte) error {
	return c.expectOK(c.do(server.OpPut, key, value))
}

// Delete removes a key.
func (c *Conn) Delete(key []byte) error {
	return c.expectOK(c.do(server.OpDelete, key, nil))
}

// Batch applies a batch of writes atomically in one round trip.
func (c *Conn) Batch(ops []kvstore.BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	return c.expectOK(c.do(server.OpMPut, nil, server.EncodeBatchPayload(ops)))
}

// Scan returns up to limit ordered key-value pairs starting at start.
func (c *Conn) Scan(start []byte, limit int) ([][2][]byte, error) {
	var lim [4]byte
	binary.LittleEndian.PutUint32(lim[:], uint32(limit))
	status, payload, err := c.do(server.OpScan, start, lim[:])
	if err != nil {
		return nil, err
	}
	if status != server.StatusOK {
		return nil, serverError(payload)
	}
	return server.DecodeScanPayload(payload)
}

// GetMulti reads several keys in one round trip. Results are positional:
// values[i] and errs[i] answer keys[i], with kvstore.ErrNotFound per
// missing key. A transport or server failure is reported in every
// errs[i]. On a snapshot-capable store the answers come from one pinned
// version per shard (see Snapshot for a single cross-shard cut).
func (c *Conn) GetMulti(keys [][]byte) ([][]byte, []error) {
	return c.mget(0, keys)
}

// mget runs one MGET round trip against the live store (snapID 0) or a
// server-side snapshot.
func (c *Conn) mget(snapID uint64, keys [][]byte) ([][]byte, []error) {
	values := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return values, errs
	}
	fail := func(err error) ([][]byte, []error) {
		for i := range errs {
			errs[i] = err
		}
		return values, errs
	}
	status, payload, err := c.do(server.OpMGet, nil, server.EncodeMGetRequest(snapID, keys))
	if err != nil {
		return fail(err)
	}
	if status != server.StatusOK {
		return fail(serverError(payload))
	}
	vs, es, err := server.DecodeMGetResponse(payload)
	if err != nil {
		return fail(err)
	}
	if len(vs) != len(keys) {
		return fail(fmt.Errorf("client: mget answered %d of %d keys", len(vs), len(keys)))
	}
	return vs, es
}

// DeleteRange deletes every key k with start ≤ k < end in one round
// trip (empty end = unbounded). The server refuses if its store has no
// range-delete support.
func (c *Conn) DeleteRange(start, end []byte) error {
	return c.expectOK(c.do(server.OpDelRange, start, end))
}

// Snap is a server-side consistent snapshot, bound to the connection
// that captured it. Reads answer as of capture time no matter how many
// writes land afterwards. Close it when done — the server also releases
// every snapshot of a connection when the connection drops, so a
// crashed client cannot block store reclamation.
type Snap struct {
	c  *Conn
	id uint64
}

// Snapshot captures a consistent snapshot on the server and returns a
// handle for reading from it. On a sharded store the cut is consistent
// across shards.
func (c *Conn) Snapshot() (*Snap, error) {
	status, payload, err := c.do(server.OpSnap, nil, nil)
	if err != nil {
		return nil, err
	}
	if status != server.StatusOK {
		return nil, serverError(payload)
	}
	if len(payload) != 8 {
		return nil, fmt.Errorf("client: malformed snapshot id")
	}
	return &Snap{c: c, id: binary.LittleEndian.Uint64(payload)}, nil
}

// Get returns the value key had when the snapshot was captured.
func (s *Snap) Get(key []byte) ([]byte, error) {
	var id [8]byte
	binary.LittleEndian.PutUint64(id[:], s.id)
	status, payload, err := s.c.do(server.OpSnapGet, key, id[:])
	if err != nil {
		return nil, err
	}
	switch status {
	case server.StatusOK:
		return payload, nil
	case server.StatusNotFound:
		return nil, kvstore.ErrNotFound
	default:
		return nil, serverError(payload)
	}
}

// GetMulti reads several keys from the snapshot's cut in one round
// trip; all answers are mutually consistent.
func (s *Snap) GetMulti(keys [][]byte) ([][]byte, []error) {
	return s.c.mget(s.id, keys)
}

// Close releases the snapshot on the server, letting reclamation
// resume there.
func (s *Snap) Close() error {
	var id [8]byte
	binary.LittleEndian.PutUint64(id[:], s.id)
	return s.c.expectOK(s.c.do(server.OpSnapRel, nil, id[:]))
}

// Stats returns the server's cost-accounting line (store counters plus
// per-op service-latency percentiles).
func (c *Conn) Stats() (string, error) {
	status, payload, err := c.do(server.OpStats, nil, nil)
	if err != nil {
		return "", err
	}
	if status != server.StatusOK {
		return "", serverError(payload)
	}
	return string(payload), nil
}

func (c *Conn) expectOK(status byte, payload []byte, err error) error {
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return serverError(payload)
	}
	return nil
}
