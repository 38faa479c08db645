package server

import (
	"sync"

	"miodb/internal/kvstore"
)

// submission is one write request queued for the shared commit path: the
// connection and tag its response goes to, and either the single
// operation of a Put/Delete/DelRange (op) or an MPUT's batch (ops,
// non-empty). The key and value slices point into the request's own
// buffer, which the submission keeps alive until its commit returns —
// stores consume a batch synchronously — and nobody references after.
type submission struct {
	c   *conn
	tag uint64
	op  kvstore.BatchOp
	ops []kvstore.BatchOp
}

func (s *submission) size() int {
	if s.ops != nil {
		return len(s.ops)
	}
	return 1
}

// batcher is the server's cross-connection group-former: every write
// from every connection lands in one queue, and a single leader
// goroutine takes whatever has accumulated and applies it as one merged
// WriteBatch. With a batch-writing store behind it, the merged batch is
// one engine commit — one WAL append — instead of hundreds of
// single-record commits: the coalescing a fleet of independent
// connections can never produce on their own.
//
// There is no timer: waiting would add latency without adding
// coalescing, because while the store commits one merge the next
// accumulates behind it (a leader/follower group commit in front of the
// engine).
//
// Each submission keeps its own atomicity (its ops are contiguous in the
// merged batch and the store applies the whole merged batch as one
// commit); a store-level failure fails every submission in the merge,
// which is the right call — the only errors left after decode-time
// validation are whole-store conditions (degraded mode, closed).
type batcher struct {
	store  kvstore.Store
	maxOps int

	mu      sync.Mutex
	pending sync.Cond    // queue non-empty, or stopped
	queue   []submission // swapped out whole by run
	stopped bool

	wg sync.WaitGroup
}

func newBatcher(store kvstore.Store, maxOps int) *batcher {
	b := &batcher{store: store, maxOps: maxOps}
	b.pending.L = &b.mu
	b.wg.Add(1)
	go b.run()
	return b
}

// submit queues a reader's burst of writes in one hand-off: one lock,
// at most one wake-up. It copies subs and never blocks; the server's
// admission limits bound the queue.
func (b *batcher) submit(subs ...submission) {
	b.mu.Lock()
	idle := len(b.queue) == 0
	b.queue = append(b.queue, subs...)
	b.mu.Unlock()
	if idle {
		b.pending.Signal()
	}
}

func (b *batcher) run() {
	defer b.wg.Done()
	var taken []submission       // the queue being committed; trades places with b.queue
	var merged []kvstore.BatchOp // reused across commits: WriteBatch consumes it synchronously
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.stopped {
			b.pending.Wait()
		}
		taken, b.queue = b.queue, taken[:0]
		b.mu.Unlock()
		if len(taken) == 0 {
			return // stopped, and the server drained every connection first
		}
		for subs := taken; len(subs) > 0; {
			n, nops := 0, 0
			for n < len(subs) && nops < b.maxOps {
				nops += subs[n].size()
				n++
			}
			merged = b.commit(subs[:n], merged)
			subs = subs[n:]
		}
		clear(taken) // drop the references to connections and request buffers
		if cap(merged) > 2*b.maxOps {
			merged = nil // an oversized MPUT rode in a merge: do not keep its room
		}
	}
}

// commit applies subs as one store commit and answers each. A lone MPUT
// is its own batch; anything else is laid end to end in merged (empty on
// entry), which is returned emptied for reuse.
func (b *batcher) commit(subs []submission, merged []kvstore.BatchOp) []kvstore.BatchOp {
	ops := subs[0].ops
	if len(subs) > 1 || ops == nil {
		for i := range subs {
			if subs[i].ops != nil {
				merged = append(merged, subs[i].ops...)
			} else {
				merged = append(merged, subs[i].op)
			}
		}
		ops = merged
	}
	status, payload := StatusOK, []byte(nil)
	if err := applyBatch(b.store, ops); err != nil {
		status, payload = StatusError, []byte(err.Error())
	}
	clear(merged) // drop the references to request buffers
	for i := range subs {
		subs[i].c.complete(subs[i].tag, status, payload)
	}
	return merged[:0]
}

// stop ends the leader after it finishes the queued tail. No submit may
// follow.
func (b *batcher) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.pending.Signal()
	b.wg.Wait()
}
