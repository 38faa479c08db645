package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"miodb/internal/core"
	"miodb/internal/kvstore"
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "scan"}

// op is one generated request: the harness hands the engine only the key
// and value it stands for.
type op struct {
	id   uint32
	kind opKind
}

// spec fixes one workload. Op counts are per trial; a run repeats trials
// (fresh store each) until it has measured for --seconds and folds them
// into one figure per metric (endToEndValues), so the work per trial — and
// with it write and space amplification — is the same on every commit.
type spec struct {
	name, why string
	keys      int  // key space
	preload   bool // every key at version 1, drained into the repository, before the clock
	valueLen  int
	threads   int // foreground threads (wire-mixed: connections)
	ops       int // measured ops per trial
	getPct    int // the rest after Get and Scan is Put
	scanPct   int
	scanLen   int
	zipf      bool
	valueLog  bool
	// ungated is why BENCHMARK.json leaves the workload out, so that the
	// driver holds no later change to its timings; the program runs it
	// like any other.
	ungated string
	// crashCheck: after the trial, outside the clock, crash the store and
	// require recovery to return every acked write.
	crashCheck bool

	// wire-mixed only: callers parked per connection in the closed loop,
	// and the open loop's fixed arrival rate and length.
	wire        bool
	window      int
	openRate    int
	openSeconds float64
}

// Sized on the 2-vCPU reference host so one trial's measured phase runs
// 1.5–4.5 s: five to sixteen trials fit a run, and the driver's 92 runs
// fit its 57 minutes with set-up and verification included. The mixes,
// distributions, value sizes and engine options are the issue's; its key
// spaces and op counts (15–25 s single passes) are scaled to that budget.
// README.md records what else differs from the issue and why.
var specs = []spec{
	{
		name: "fill-small",
		why:  "empty store, one writer, 128 B uniform overwrites: commit, wal, memtable, one-piece flush, zero-copy merges, repository; the read path is idle",
		keys: 30000, valueLen: 128, threads: 1, ops: 90000, crashCheck: true,
	},
	{
		name: "read-quiesced",
		why:  "preloaded and drained, one reader, 90% Get 10% Scan(50) uniform: version pin, memtable miss, filtered level tables, repository search, k-way iterator; no writer, no merge",
		keys: 60000, preload: true, valueLen: 128, threads: 1, ops: 240000,
		getPct: 90, scanPct: 10, scanLen: 50,
		ungated: "the one workload the host's memory alone times: six of eight sets of ten runs spread 14-60% on ops_per_s, and in two the host halved it for minutes",
	},
	{
		name: "mixed-zipf",
		why:  "50% Get 45% Put 5% Scan(20), scrambled zipfian 0.99, one thread beside the background: reads cross memtables and levels through bloom filters while merges relink nodes under them",
		keys: 60000, preload: true, valueLen: 128, threads: 1, ops: 100000,
		getPct: 50, scanPct: 5, scanLen: 20, zipf: true,
	},
	{
		name: "vlog-large",
		why:  "value log on, 4 KB values, 70% Put 30% Get uniform, then GC until nothing is reclaimed: vlog append, resolve and GC copy the bytes while merges move 16-byte pointers",
		keys: 4000, preload: true, valueLen: 4096, threads: 1, ops: 100000,
		getPct: 30, valueLog: true,
	},
	{
		name: "wire-mixed",
		why:  "loopback server, 2 client connections, closed loop of 8 callers each, 50% Get 50% Put: codec, reader/writer split, cross-connection batcher into group commit; the traced run adds an open loop",
		keys: 30000, preload: true, valueLen: 128, threads: 2, ops: 60000,
		getPct: 50, wire: true, window: 8, openRate: 4000, openSeconds: 1.5,
	},
}

// primary is the mix's most frequent op kind, the one whose median
// latency the trial lines show. A median over all kinds of a mix would
// sit on the boundary between a fast kind and a slow one and jump with
// the mix's sampling.
func (s *spec) primary() opKind {
	if put := 100 - s.getPct - s.scanPct; put > s.getPct {
		return opPut
	}
	return opGet
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// scaled returns the spec at a fraction of its size (--smoke).
func (s spec) scaled(f float64) spec {
	scale := func(n int, min int) int {
		if v := int(float64(n) * f); v > min {
			return v
		}
		return min
	}
	s.keys = scale(s.keys, 500)
	s.ops = scale(s.ops, 1000)
	s.openSeconds *= f * 10
	return s
}

// engine adapts core.DB to kvstore.Store (core names it FlushAll).
type engine struct{ *core.DB }

func (e engine) Flush() error { return e.DB.FlushAll() }

func (s *spec) options() core.Options {
	// Defaults, as miodb.Open gives them; Simulate stays off so every
	// timing is CPU and never an injected spin.
	var o core.Options
	if s.valueLog {
		o.ValueLog = &core.ValueLogOptions{}
	}
	return o
}

// model is the harness's record of what the store must hold. Key id k is
// written only by thread k mod writers, in version order, so a reader on
// any thread can bound what it may see: at least the version acked before
// its read began, at most the version issued by the time it ended.
type model struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newModel(n int) *model {
	return &model{issued: make([]atomic.Uint32, n), acked: make([]atomic.Uint32, n)}
}

// failures counts wrong answers and errors; the first few are kept to print.
type failures struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// store is what a foreground thread drives: the engine in process, or a
// client connection. scan hands each entry to fn in order.
type store interface {
	put(key, value []byte) error
	get(key []byte) ([]byte, error)
	scan(start []byte, limit int, fn func(key, value []byte)) error
}

type localStore struct{ db *core.DB }

func (l localStore) put(k, v []byte) error        { return l.db.Put(k, v) }
func (l localStore) get(k []byte) ([]byte, error) { return l.db.Get(k) }
func (l localStore) scan(start []byte, limit int, fn func(k, v []byte)) error {
	return l.db.Scan(start, limit, func(k, v []byte) bool { fn(k, v); return true })
}

// worker is one foreground thread's state for a trial.
type worker struct {
	t      *trial
	id     int
	st     store
	stream []op
	value  []byte
	lo     []uint32 // per-entry lower version bounds of the scan in flight
	// lat holds every op's latency in ns, per kind; sized in set-up so the
	// measured loop never allocates for it.
	lat [numKinds][]uint32
	// spans, when tracing, keeps each op's start (ns since trial clock
	// start) next to its latency.
	starts [numKinds][]int64
}

// do runs one op against the store, checks the answer, and returns the
// latency of the call alone (verification is outside it).
func (w *worker) do(o op) time.Duration {
	t := w.t
	key := t.ks.key(o.id)
	switch o.kind {
	case opPut:
		ver := t.m.issued[o.id].Load() + 1
		fillValue(w.value, o.id, ver)
		t.m.issued[o.id].Store(ver)
		t0 := time.Now()
		err := w.st.put(key, w.value)
		d := time.Since(t0)
		if err != nil {
			t.fail.add("put %s: %v", key, err)
			return d
		}
		t.m.acked[o.id].Store(ver)
		return d
	case opGet:
		lo := t.m.acked[o.id].Load()
		t0 := time.Now()
		val, err := w.st.get(key)
		d := time.Since(t0)
		hi := t.m.issued[o.id].Load()
		t.checkGet(o.id, val, err, lo, hi)
		return d
	default:
		n := t.spec.scanLen
		if rest := t.ks.n - int(o.id); rest < n {
			n = rest
		}
		for i := 0; i < n; i++ {
			w.lo[i] = t.m.acked[int(o.id)+i].Load()
		}
		got := 0
		t0 := time.Now()
		err := w.st.scan(key, t.spec.scanLen, func(k, v []byte) {
			// Order, length and values: entry i must be key id+i.
			if got < n {
				id := o.id + uint32(got)
				if kid, ok := keyID(k); !ok || kid != id {
					t.fail.add("scan from %s: entry %d is %q", key, got, k)
				} else if ver, ok := checkValue(v, id, t.spec.valueLen); !ok || ver < w.lo[got] || ver > t.m.issued[id].Load() {
					t.fail.add("scan from %s: entry %d version %d (valid %v) outside [%d,%d]", key, got, ver, ok, w.lo[got], t.m.issued[id].Load())
				}
			}
			got++
		})
		d := time.Since(t0)
		if err != nil {
			t.fail.add("scan from %s: %v", key, err)
		} else if got != n {
			t.fail.add("scan from %s: %d entries, want %d", key, got, n)
		}
		return d
	}
}

func (t *trial) checkGet(id uint32, val []byte, err error, lo, hi uint32) {
	if err != nil {
		if !(errors.Is(err, kvstore.ErrNotFound) && lo == 0) {
			t.fail.add("get %s: %v (acked version %d)", t.ks.key(id), err, lo)
		}
		return
	}
	ver, ok := checkValue(val, id, t.spec.valueLen)
	if !ok || ver < lo || ver > hi {
		t.fail.add("get %s: version %d (valid %v) outside [%d,%d]", t.ks.key(id), ver, ok, lo, hi)
	}
}

// trial is one set-up + measured phase + verification of a workload on a
// fresh store.
type trial struct {
	spec   *spec
	seed   uint64
	traced bool
	// openLoop adds wire-mixed's phase B after the closed loop. Only the
	// traced run asks for it: its latencies are per-layer diagnostics, and
	// an untraced run spends the time on more closed-loop trials instead.
	openLoop bool

	ks      *keySpace
	m       *model
	db      *core.DB
	workers []*worker
	fail    failures
	res     trialResult
}

// genStreams draws every thread's op stream. Put ids are moved onto a key
// the thread owns (id ≡ thread mod writers), which keeps the distribution
// and makes per-key versions single-writer.
func (t *trial) genStreams(nworkers, ops int, purpose uint64) [][]op {
	s := t.spec
	var z *zipfian
	if s.zipf {
		z = newZipfian(uint64(s.keys), 0.99)
	}
	out := make([][]op, nworkers)
	for w := range out {
		r := newRNG(deriveSeed(t.seed, purpose, uint64(w)))
		n := ops / nworkers
		if w < ops%nworkers {
			n++
		}
		stream := make([]op, n)
		for i := range stream {
			var id uint64
			if z != nil {
				id = z.scrambled(r)
			} else {
				id = r.intn(uint64(s.keys))
			}
			kind := opPut
			switch p := int(r.intn(100)); {
			case p < s.getPct:
				kind = opGet
			case p < s.getPct+s.scanPct:
				kind = opScan
			}
			if kind == opPut {
				id = id - id%uint64(nworkers) + uint64(w)
				if id >= uint64(s.keys) {
					id -= uint64(nworkers)
				}
			}
			stream[i] = op{id: uint32(id), kind: kind}
		}
		out[w] = stream
	}
	return out
}

func (t *trial) newWorkers(streams [][]op, stores []store) {
	t.workers = make([]*worker, len(streams))
	for i, stream := range streams {
		w := &worker{t: t, id: i, st: stores[i], stream: stream,
			value: make([]byte, t.spec.valueLen), lo: make([]uint32, t.spec.scanLen)}
		var counts [numKinds]int
		for _, o := range stream {
			counts[o.kind]++
		}
		for k := range w.lat {
			w.lat[k] = make([]uint32, 0, counts[k])
			if t.traced {
				w.starts[k] = make([]int64, 0, counts[k])
			}
		}
		t.workers[i] = w
	}
}

// preload writes every key at version 1 in id order, in batches, and
// drains. The clock then starts from a settled store: memtable empty, no
// level holding two tables, the bulk of the data in the repository and
// at most one table left in each level above it.
func (t *trial) preload() error {
	const batch = 256
	s := t.spec
	ops := make([]kvstore.BatchOp, 0, batch)
	vals := make([]byte, batch*s.valueLen)
	for id := 0; id < s.keys; id++ {
		v := vals[len(ops)*s.valueLen : (len(ops)+1)*s.valueLen]
		fillValue(v, uint32(id), 1)
		ops = append(ops, kvstore.BatchOp{Key: t.ks.key(uint32(id)), Value: v})
		t.m.issued[id].Store(1)
		t.m.acked[id].Store(1)
		if len(ops) == batch || id == s.keys-1 {
			if err := t.db.WriteBatch(ops); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			ops = ops[:0]
		}
	}
	return t.drain()
}

// drain returns once the memtable is flushed and every merge, lazy copy
// and (value log on) GC pass has finished — the point where the clock of
// a write-bearing workload stops.
func (t *trial) drain() error {
	if err := t.db.FlushAll(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if !t.spec.valueLog {
		return nil
	}
	for {
		t0 := time.Now()
		n, err := t.db.RunValueLogGC()
		t.res.vlogGCBusy += time.Since(t0)
		if err != nil {
			return fmt.Errorf("value-log gc: %w", err)
		}
		// Relocated values went back through the write path.
		if err := t.db.FlushAll(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		if n == 0 {
			return nil
		}
	}
}

// setUp is everything before the clock: open, preload, drain, generate
// the op streams, size the sample buffers.
func (t *trial) setUp() error {
	s := t.spec
	t.ks = newKeySpace(s.keys)
	t.m = newModel(s.keys)
	db, err := core.Open(s.options())
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	t.db = db
	if s.preload {
		if err := t.preload(); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs every worker through its stream, each sending its next
// op when the last one returns, and returns when all are done.
func (t *trial) closedLoop(c clock) {
	var wg sync.WaitGroup
	for _, w := range t.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for _, o := range w.stream {
				d := w.do(o)
				if t.traced {
					w.starts[o.kind] = append(w.starts[o.kind], int64(c.since()-d))
				}
				w.lat[o.kind] = append(w.lat[o.kind], uint32(d))
			}
		}(w)
	}
	wg.Wait()
}

// runLocal is the measured phase of the four in-process workloads.
func (t *trial) runLocal() error {
	s := t.spec
	stores := make([]store, s.threads)
	for i := range stores {
		stores[i] = localStore{t.db}
	}
	t.newWorkers(t.genStreams(s.threads, s.ops, 1), stores)
	t.res.markClockStart(t.db)

	var sampler *backlogSampler
	if t.traced {
		sampler = startBacklogSampler(t.db)
	}
	c := startClock()
	t.closedLoop(c)
	t.res.ackS = c.since().Seconds()
	writes := s.getPct+s.scanPct < 100
	if writes {
		if err := t.drain(); err != nil {
			return err
		}
	}
	c.stop(&t.res)
	if sampler != nil {
		t.res.peakImms, t.res.peakL0 = sampler.stop()
	}
	t.res.ops = s.ops
	return nil
}

// verify runs outside the clock: structural check, then every key read
// back at exactly its last acked version (the store is quiescent, so the
// bound is tight).
func (t *trial) verify(db *core.DB) {
	if err := db.CheckConsistency(); err != nil {
		t.fail.add("consistency: %v", err)
	}
	for id := 0; id < t.ks.n; id++ {
		ver := t.m.acked[id].Load()
		val, err := db.Get(t.ks.key(uint32(id)))
		t.res.attempted++
		t.checkGet(uint32(id), val, err, ver, ver)
	}
}

// crashRecover drops the store as a power failure would and recovers it
// from the NVM image alone; every acked key must come back at its last
// acked version. It replaces t.db with the recovered store.
func (t *trial) crashRecover() {
	img := t.db.CrashForTest()
	t0 := time.Now()
	db, err := core.Recover(img, t.spec.options())
	t.res.recoverMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		t.fail.add("recover: %v", err)
		t.db = nil
		return
	}
	t.db = db
	if err := db.FlushAll(); err != nil {
		t.fail.add("flush after recover: %v", err)
	}
	t.verify(db)
}

// run executes the whole trial and leaves its numbers in t.res.
func (t *trial) run() error {
	// The previous trial's store is garbage by now; collect it before the
	// set-up clock so one trial does not pay for another.
	runtime.GC()
	t.res.setupStart = time.Now()
	if err := t.setUp(); err != nil {
		return err
	}
	var err error
	if t.spec.wire {
		err = t.runWire()
	} else {
		err = t.runLocal()
	}
	if err != nil {
		t.db.Close()
		return err
	}
	t.collect()
	t.verify(t.db)
	if t.spec.crashCheck {
		t.crashRecover()
	}
	if t.db != nil {
		if err := t.db.Close(); err != nil {
			t.fail.add("close: %v", err)
		}
	}
	t.res.attempted += t.res.ops
	t.res.failed = int(t.fail.n.Load())
	return nil
}
