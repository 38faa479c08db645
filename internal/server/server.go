package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"miodb/internal/kvstore"
)

// Options tunes the front end. The zero value takes defaults.
type Options struct {
	// Window caps in-flight requests per connection. A connection whose
	// client stops consuming responses fills its window and stops being
	// read — backpressure lands on the slow consumer, never on the
	// server or its neighbors. Default 128.
	Window int
	// MaxPending caps requests being processed at once across all
	// connections (the global admission limit in front of the store).
	// Default 4096.
	MaxPending int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// to complete before force-closing connections. Default 5s.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 128
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// maxBatchOps caps how many operations the cross-connection batcher
// merges into one store commit.
const maxBatchOps = 4096

// Server serves a kvstore.Store over TCP. Each connection is split into a
// reader goroutine (decodes and dispatches) and a writer goroutine
// (serializes tagged responses), so handling never blocks the socket.
// Writes from every connection funnel through one shared batcher that
// merges them into batch commits (see batcher.go). Every
// hand-off moves whatever burst is ready, not one request: the reader
// decodes all the frames one socket read delivered before it dispatches
// them, and the writer sends all the responses that are ready in one
// socket write.
type Server struct {
	store kvstore.Store
	opts  Options
	ln    net.Listener
	batch *batcher

	// pendingSem holds one token per request currently being processed
	// (global admission control); inflight tracks the same population
	// for Close's drain phase.
	pendingSem chan struct{}
	inflight   sync.WaitGroup

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + per-connection reader/writer goroutines
}

// New wraps a store with default options.
func New(store kvstore.Store) *Server { return NewWithOptions(store, Options{}) }

// NewWithOptions wraps a store with explicit front-end tuning.
func NewWithOptions(store kvstore.Store, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		store:      store,
		opts:       opts,
		conns:      map[*conn]struct{}{},
		pendingSem: make(chan struct{}, opts.MaxPending),
	}
	s.batch = newBatcher(store, maxBatchOps)
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return s.serveOn(ln), nil
}

// serveOn starts accepting on an established listener, which the server
// owns from here on.
func (s *Server) serveOn(ln net.Listener) net.Addr {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(c)
	}
}

// conn is one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	writeCh chan tresp    // responses awaiting serialization (cap Window)
	window  chan struct{} // in-flight slots (cap Window)
	ops     sync.WaitGroup

	// Snapshots captured on this connection (OpSnap), keyed by the id
	// returned to the client. Connection-owned state: released by
	// OpSnapRel or en masse on disconnect, after in-flight requests
	// drain, so a dropped client can never leak a snapshot (which would
	// block store reclamation — and Close — forever).
	snapMu  sync.Mutex
	snaps   map[uint64]kvstore.SnapshotView
	snapSeq uint64

	closed    chan struct{}
	closeOnce sync.Once
}

// newConn wraps an accepted socket; serve starts its write loop.
func (s *Server) newConn(nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		writeCh: make(chan tresp, s.opts.Window),
		window:  make(chan struct{}, s.opts.Window),
		closed:  make(chan struct{}),
	}
}

// registerSnapshot stores a captured view and returns its id (never 0 —
// 0 means "the live store" in MGET requests).
func (c *conn) registerSnapshot(sv kvstore.SnapshotView) uint64 {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if c.snaps == nil {
		c.snaps = make(map[uint64]kvstore.SnapshotView)
	}
	c.snapSeq++
	c.snaps[c.snapSeq] = sv
	return c.snapSeq
}

// lookupSnapshot resolves an id to its view (nil if unknown/released).
func (c *conn) lookupSnapshot(id uint64) kvstore.SnapshotView {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.snaps[id]
}

// takeSnapshot removes an id from the registry, returning the view so
// the caller can Close it outside the lock.
func (c *conn) takeSnapshot(id uint64) kvstore.SnapshotView {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	sv := c.snaps[id]
	delete(c.snaps, id)
	return sv
}

// releaseSnapshots closes every snapshot still registered. Called once
// all in-flight requests for the connection have drained.
func (c *conn) releaseSnapshots() {
	c.snapMu.Lock()
	snaps := c.snaps
	c.snaps = nil
	c.snapMu.Unlock()
	for _, sv := range snaps {
		sv.Close()
	}
}

// tresp is one tagged response queued for the write loop.
type tresp struct {
	tag     uint64
	status  byte
	payload []byte
}

// shutdown force-closes the connection (idempotent). Blocked reads and
// writes error out; goroutines selecting on c.closed exit.
func (c *conn) shutdown() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
	})
}

// enqueue hands a response to the write loop. Capacity Window and the
// one-response-per-in-flight-request invariant make the send
// non-blocking on a live connection; on a dead one the response drops.
func (c *conn) enqueue(r tresp) {
	select {
	case c.writeCh <- r:
	case <-c.closed:
	}
}

// complete answers one request; it runs exactly once per request. It
// also releases what admit claimed, except the window slot, which the
// write loop frees once the response is on the wire.
func (c *conn) complete(tag uint64, status byte, payload []byte) {
	c.enqueue(tresp{tag: tag, status: status, payload: payload})
	<-c.srv.pendingSem
	c.srv.inflight.Done()
	c.ops.Done()
}

// acquire takes one token of sem. With wait false it gives up rather
// than block; with wait true it gives up only when closed is.
func acquire(sem chan struct{}, closed <-chan struct{}, wait bool) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	if !wait {
		return false
	}
	select {
	case sem <- struct{}{}:
		return true
	case <-closed:
		return false
	}
}

// admit claims, for one decoded request, a slot of the connection's
// window and then one of the server's pending limit; complete and the
// write loop release them.
func (c *conn) admit(wait bool) bool {
	if !acquire(c.window, c.closed, wait) {
		return false
	}
	if !acquire(c.srv.pendingSem, c.closed, wait) {
		<-c.window
		return false
	}
	c.srv.inflight.Add(1)
	c.ops.Add(1)
	return true
}

func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serve is a connection's read loop: check the preamble, then decode,
// admit (per-connection window, then global pending limit), dispatch. A
// connection that does not open with MagicV2 is closed without a reply.
// The loop never writes to the socket; the write loop owns that side.
//
// Requests move in bursts: the loop blocks for one frame, then keeps
// decoding for as long as a whole frame is already buffered, and only
// then hands the burst on — its writes to the batcher in one submit, its
// reads to one goroutine. Nothing held back ever waits on the socket or
// on admission: the responses of the held requests are what frees the
// slots the next one may be waiting for.
func (s *Server) serve(c *conn) {
	defer s.wg.Done()
	var magic [4]byte
	if _, err := io.ReadFull(c.br, magic[:]); err != nil || magic != MagicV2 {
		c.shutdown()
		s.forget(c)
		return
	}
	s.wg.Add(1)
	go c.writeLoop()

	var writes []submission   // reused: the batcher copies a burst into its queue
	var reads []taggedRequest // handed over to the burst's goroutine
	flush := func() {
		if len(writes) > 0 {
			s.batch.submit(writes...)
			clear(writes)
			writes = writes[:0]
		}
		if len(reads) > 0 {
			go s.runReads(c, reads)
			reads = nil
		}
	}
	for {
		req, err := readTaggedRequest(c.br)
		if err != nil {
			break // disconnect, malformed stream, or drain deadline
		}
		if !c.admit(false) {
			flush()
			if !c.admit(true) {
				break
			}
		}
		if !isWrite(req.op) {
			reads = append(reads, req)
		} else if sub, ok := s.stageWrite(c, req); ok {
			writes = append(writes, sub)
		}
		if !taggedRequestBuffered(c.br) {
			flush()
		}
	}
	flush()
	// Let every dispatched request finish and enqueue its response,
	// release the connection's snapshots (nothing can reach them
	// anymore), then close the queue so the write loop flushes the tail
	// and tears the socket down.
	go func() {
		c.ops.Wait()
		c.releaseSnapshots()
		close(c.writeCh)
	}()
	s.forget(c)
}

// runReads executes one burst's non-mutating requests in arrival order,
// off the reader goroutine so a device-bound Get cannot stall decoding.
func (s *Server) runReads(c *conn, reads []taggedRequest) {
	for _, req := range reads {
		status, payload := s.handleRead(c, req)
		c.complete(req.tag, status, payload)
	}
}

// writeLoop is the single writer for a connection: it drains
// queued responses, coalescing everything ready into one socket write,
// and releases window slots once responses are on the wire.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	buf := make([]byte, 0, 16<<10)
	for {
		var r tresp
		var ok bool
		select {
		case r, ok = <-c.writeCh:
			if !ok {
				c.shutdown()
				return
			}
		case <-c.closed:
			return
		}
		buf = appendTaggedResponse(buf[:0], r.tag, r.status, r.payload)
		// A single response while the connection has other requests in
		// flight: theirs are likely a scheduler slice away (the batcher
		// and a burst's reads complete in a row, and the first completion
		// woke this loop), so yield once before draining rather than pay
		// one write per response. The gate is commitOps's
		// (internal/core): a lone request never donates its slice.
		if len(c.writeCh) == 0 && len(c.window) > 1 {
			runtime.Gosched()
		}
		n := 1
	coalesce:
		for len(buf) < 256<<10 {
			select {
			case r2, ok2 := <-c.writeCh:
				if !ok2 {
					break coalesce
				}
				buf = appendTaggedResponse(buf, r2.tag, r2.status, r2.payload)
				n++
			default:
				break coalesce
			}
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.shutdown()
			return
		}
		for i := 0; i < n; i++ {
			<-c.window
		}
	}
}

// isWrite reports whether op goes through the batcher.
func isWrite(op byte) bool {
	return op == OpPut || op == OpDelete || op == OpMPut || op == OpDelRange
}

// stageWrite validates one admitted mutating request (isWrite) and turns
// it into the submission the batcher will commit. A request that is
// refused, or has nothing to commit, is answered on the spot and ok is
// false.
func (s *Server) stageWrite(c *conn, req taggedRequest) (sub submission, ok bool) {
	sub = submission{c: c, tag: req.tag}
	var msg string
	switch req.op {
	case OpPut:
		if len(req.key) == 0 {
			msg = "put: empty key"
		}
		sub.op = kvstore.BatchOp{Key: req.key, Value: req.val}
	case OpDelete:
		if len(req.key) == 0 {
			msg = "delete: empty key"
		}
		sub.op = kvstore.BatchOp{Key: req.key, Delete: true}
	case OpMPut:
		ops, err := DecodeBatchPayload(req.val)
		if err != nil {
			msg = err.Error()
		} else {
			msg = s.validateBatch(ops)
		}
		if msg == "" && len(ops) == 0 {
			c.complete(req.tag, StatusOK, nil)
			return sub, false
		}
		sub.ops = ops
	case OpDelRange:
		if _, ok := s.store.(kvstore.RangeDeleter); !ok {
			msg = "delrange: store does not support range deletes"
		} else if len(req.val) > 0 && string(req.key) >= string(req.val) {
			c.complete(req.tag, StatusOK, nil) // empty range — a no-op, like the store's
			return sub, false
		}
		sub.op = kvstore.BatchOp{Key: req.key, Value: req.val, RangeDelete: true}
	}
	if msg != "" {
		c.complete(req.tag, StatusError, []byte(msg))
		return sub, false
	}
	return sub, true
}

// validateBatch screens a decoded MPUT batch: empty keys are refused
// (range deletes excepted — an empty start means "from the first key"),
// and range deletes require a store that can honor them.
func (s *Server) validateBatch(ops []kvstore.BatchOp) string {
	for _, o := range ops {
		if o.RangeDelete {
			if _, ok := s.store.(kvstore.RangeDeleter); !ok {
				return "mput: store does not support range deletes"
			}
			continue
		}
		if len(o.Key) == 0 {
			return "mput: empty key"
		}
	}
	return ""
}

// handleRead serves the non-mutating ops (and rejects unknown ones).
// The conn carries the connection's snapshot registry for the SNAP
// family.
func (s *Server) handleRead(c *conn, req taggedRequest) (byte, []byte) {
	switch req.op {
	case OpGet:
		v, err := s.store.Get(req.key)
		switch {
		case err == nil:
			return StatusOK, v
		case errors.Is(err, kvstore.ErrNotFound):
			return StatusNotFound, nil
		default:
			return StatusError, []byte(err.Error())
		}
	case OpSnap:
		sn, ok := s.store.(kvstore.Snapshotter)
		if !ok {
			return StatusError, []byte("snap: store does not support snapshots")
		}
		sv, err := sn.SnapshotView()
		if err != nil {
			return StatusError, []byte(err.Error())
		}
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], c.registerSnapshot(sv))
		return StatusOK, id[:]
	case OpSnapGet:
		if len(req.val) != 8 {
			return StatusError, []byte("snapget: missing snapshot id")
		}
		sv := c.lookupSnapshot(binary.LittleEndian.Uint64(req.val))
		if sv == nil {
			return StatusError, []byte("snapget: unknown snapshot id")
		}
		v, err := sv.Get(req.key)
		switch {
		case err == nil:
			return StatusOK, v
		case errors.Is(err, kvstore.ErrNotFound):
			return StatusNotFound, nil
		default:
			return StatusError, []byte(err.Error())
		}
	case OpSnapRel:
		if len(req.val) != 8 {
			return StatusError, []byte("snaprel: missing snapshot id")
		}
		sv := c.takeSnapshot(binary.LittleEndian.Uint64(req.val))
		if sv == nil {
			return StatusError, []byte("snaprel: unknown snapshot id")
		}
		if err := sv.Close(); err != nil {
			return StatusError, []byte(err.Error())
		}
		return StatusOK, nil
	case OpMGet:
		snapID, mkeys, err := DecodeMGetRequest(req.val)
		if err != nil {
			return StatusError, []byte(err.Error())
		}
		var values [][]byte
		var errs []error
		if snapID == 0 {
			mg, ok := s.store.(kvstore.MultiGetter)
			if !ok {
				return StatusError, []byte("mget: store does not support multi-get")
			}
			values, errs = mg.GetMulti(mkeys)
		} else {
			sv := c.lookupSnapshot(snapID)
			if sv == nil {
				return StatusError, []byte("mget: unknown snapshot id")
			}
			values, errs = sv.GetMulti(mkeys)
		}
		for _, err := range errs {
			if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				return StatusError, []byte(err.Error())
			}
		}
		if mgetResponseSize(values) > maxFrame {
			return StatusError, []byte("mget: result exceeds frame limit")
		}
		return StatusOK, EncodeMGetResponse(values, errs)
	case OpScan:
		if len(req.val) != 4 {
			return StatusError, []byte("scan: missing limit")
		}
		limit := int(binary.LittleEndian.Uint32(req.val))
		// The payload is the pairs end to end with no count in front, so
		// each is encoded as the store yields it — until the next pair
		// would pass the frame limit, which the client refuses to read.
		var payload []byte
		tooBig := false
		err := s.store.Scan(req.key, limit, func(k, v []byte) bool {
			if tooBig = len(payload)+8+len(k)+len(v) > maxFrame; tooBig {
				return false
			}
			payload = appendFrame(appendFrame(payload, k), v)
			return true
		})
		if err != nil {
			return StatusError, []byte(err.Error())
		}
		if tooBig {
			return StatusError, []byte("scan: result exceeds frame limit")
		}
		return StatusOK, payload
	case OpStats:
		// The store's one stats text (stats.Snapshot.String): the numbers
		// miodb-bench prints, from the distributions the engine measures.
		return StatusOK, []byte(s.store.Stats().String())
	default:
		return StatusError, []byte("unknown op")
	}
}

// applyBatch hands a merged batch to the store. Stores with a batch
// write path (MioDB's) get the whole batch in one
// commit — one WAL append, consecutive sequence numbers; others fall
// back to per-operation writes, which keeps every kvstore.Store
// servable.
func applyBatch(store kvstore.Store, ops []kvstore.BatchOp) error {
	if bw, ok := store.(kvstore.BatchWriter); ok {
		return bw.WriteBatch(ops)
	}
	for _, op := range ops {
		var err error
		switch {
		case op.RangeDelete:
			// Decode-time validation guarantees the store implements
			// RangeDeleter before a range op reaches a batch.
			rd, ok := store.(kvstore.RangeDeleter)
			if !ok {
				return fmt.Errorf("server: store does not support range deletes")
			}
			err = rd.DeleteRange(op.Key, op.Value)
		case op.Delete:
			err = store.Delete(op.Key)
		default:
			err = store.Put(op.Key, op.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Close drains gracefully: stop accepting, stop reading new requests,
// let in-flight requests complete (bounded by DrainTimeout), flush
// their responses, then tear connections down. The underlying store is
// not closed (the caller owns it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	// Phase 1: wake every blocked read so the readers stop admitting
	// new requests. Requests already admitted keep running.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	// Phase 2: bounded wait for in-flight requests to finish.
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	timeout := time.NewTimer(s.opts.DrainTimeout)
	defer timeout.Stop()
	select {
	case <-drained:
	case <-timeout.C:
	}
	// Phase 3: wait for the write loops to flush the drained responses
	// and exit; force-close stragglers after a second bounded wait.
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	force := time.NewTimer(s.opts.DrainTimeout)
	defer force.Stop()
	select {
	case <-finished:
	case <-force.C:
		for _, c := range conns {
			c.shutdown()
		}
		<-finished
	}
	// No connection goroutine is left, so nothing can submit: stop the
	// batcher after it finishes the queued tail.
	s.batch.stop()
	return nil
}
