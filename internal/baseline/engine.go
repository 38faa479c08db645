// Package baseline is the engine the three comparison stores share: the
// devices, a DRAM memtable + WAL front end with a bounded queue of
// immutable buffers, a job table (internal/jobs) running the retire job
// and the SSTable tree's compaction, the read fan-out and the lifecycle.
// Each of leveldbkv, matrixkv and novelsm embeds an Engine and adds only
// what its paper changes — what throttles a write, which buffer follows a
// full one, where a retired buffer goes, and the tier read between the
// buffers and the SSTable tree — so the differences the experiments
// measure come from those designs alone.
package baseline

import (
	"errors"
	"sync"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/jobs"
	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/stats"
	"miodb/internal/vaddr"
	"miodb/internal/vfs"
	"miodb/internal/wal"
)

// Config is what the engine takes from a baseline's options.
type Config struct {
	// MemTableSize is the DRAM buffer capacity (default 64 KiB).
	MemTableSize int64
	// LSM tunes the SSTable tree; nil runs without one.
	LSM *lsm.Options
	// Disk hosts the SSTables (nil: an NVM-block-profile disk).
	Disk *vfs.Disk
	// DisableWAL turns off logging of DRAM-buffered writes.
	DisableWAL bool
	// Simulate enables device latency injection; TimeScale scales it.
	Simulate  bool
	TimeScale float64
}

// Policy is what a baseline adds to the engine. Hooks marked "Mu held"
// run with Engine.Mu held. Every hook but Retire may be nil.
type Policy struct {
	// QueueBound is how many immutable buffers may wait for retirement
	// before a rotating writer blocks.
	QueueBound int
	// Hold (Mu held) reports that writes must wait outright; the writer
	// waits on the job table until it clears, an interval stall.
	Hold func() bool
	// Slowdown (Mu held) returns how long to delay a write, at most once
	// per write, before its room check: a cumulative stall.
	Slowdown func() time.Duration
	// AtRotation (Mu held) reports that a full active buffer must not
	// rotate yet, though the queue has room; the writer waits on the job
	// table until it clears, an interval stall.
	AtRotation func() bool
	// Next (Mu held) makes the buffer that replaces the full active one
	// (default: a fresh DRAM buffer).
	Next func(full *Buffer) (*Buffer, error)
	// Retire moves the oldest immutable buffer's data to where the
	// baseline keeps it. It runs as the retire job, without Mu; the
	// buffer stays queued, and so visible to readers, until it returns.
	Retire func(b *Buffer) error
	// Compact is a background job of the baseline's own, served by its
	// own runner on the engine's job table beside the retire job and the
	// tree's compaction (nil: none). Drain waits for it too.
	Compact *jobs.Job
	// Get reads the baseline's tier between the buffers and the SSTable
	// tree.
	Get func(key []byte) (value []byte, kind keys.Kind, ok bool)
	// Sources (Mu held) appends iterators over that tier.
	Sources func(its []iterx.Iterator) []iterx.Iterator
}

// Buffer is one write buffer: a memtable and, for a logged DRAM buffer,
// its WAL.
type Buffer struct {
	MT  *memtable.MemTable
	Log *wal.Log // nil when logging is off or the buffer lives in NVM
	NVM bool     // the memtable lives in NVM
}

func (b *Buffer) release() {
	b.MT.Release()
	if b.Log != nil {
		b.Log.Release()
	}
}

// Engine is the shared store skeleton. Its zero value is unusable; call
// Init.
type Engine struct {
	DRAM *nvm.Device
	NVM  *nvm.Device // hosts the WAL and every NVM structure
	LSM  *lsm.Levels // nil without an SSTable tree
	St   *stats.Recorder

	// devices lists DRAM, NVM and, with an SSTable tree, its disk's.
	devices nvm.Devices

	memTableSize int64
	chunkSize    int
	logged       bool
	p            Policy

	writeMu sync.Mutex // serializes writers and rotations
	seq     uint64

	// Mu guards the buffers, the queue and any state a policy keeps
	// beside them; bg is the job table on Mu.
	Mu     sync.Mutex
	bg     *jobs.Table
	active *Buffer
	queue  []*Buffer // immutable buffers, oldest first
}

var errEmptyKey = errors.New("baseline: empty key")

// Init sets up the devices, the SSTable tree and the first buffer, and
// starts the retire, Compact and tree compaction jobs, a runner each.
func (e *Engine) Init(c Config, p Policy) error {
	if c.MemTableSize <= 0 {
		c.MemTableSize = 64 << 10
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	e.memTableSize = c.MemTableSize
	// The arena stride bounds the largest entry: 256 KiB, or one whole
	// memtable when that is more than four times 256 KiB.
	e.chunkSize = 256 << 10
	if int64(e.chunkSize) < c.MemTableSize/4 {
		e.chunkSize = int(c.MemTableSize)
	}
	e.logged = !c.DisableWAL
	e.p = p
	e.St = &stats.Recorder{}
	e.bg = jobs.New(&e.Mu, nil)

	space := vaddr.NewSpace()
	e.DRAM = nvm.NewDevice(space, nvm.DRAMProfile())
	e.NVM = nvm.NewDevice(space, nvm.NVMProfile())
	e.devices = nvm.Devices{e.DRAM, e.NVM}
	if c.LSM != nil {
		lo := *c.LSM
		lo.Disk = c.Disk
		if lo.Disk == nil {
			lo.Disk = vfs.NewDisk(vfs.NVMBlockProfile())
		}
		lo.Stats = e.St
		e.devices = append(e.devices, lo.Disk.Device())
		e.LSM = lsm.New(lo, e.bg)
	}
	e.devices.Simulate(c.Simulate, c.TimeScale)

	active, err := e.NewBuffer(e.DRAM, e.memTableSize)
	if err != nil {
		return err
	}
	e.active = active
	retire := &jobs.Job{Name: "retire", Ready: func() bool { return len(e.queue) > 0 }, Run: e.retireOne}
	runners := [][]*jobs.Job{{retire}}
	if p.Compact != nil {
		runners = append(runners, []*jobs.Job{p.Compact})
	}
	if e.LSM != nil {
		runners = append(runners, []*jobs.Job{e.LSM.Compaction()})
	}
	e.bg.Start(runners...)
	return nil
}

// MemTableSize is the DRAM buffer capacity.
func (e *Engine) MemTableSize() int64 { return e.memTableSize }

// ChunkSize is the arena stride of every buffer, which bounds the
// largest entry.
func (e *Engine) ChunkSize() int { return e.chunkSize }

// NewBuffer makes a write buffer of the given capacity on dev. Only a
// DRAM buffer is logged: an NVM memtable is persistent already.
func (e *Engine) NewBuffer(dev *nvm.Device, capacity int64) (*Buffer, error) {
	mt, err := memtable.New(dev, capacity, e.chunkSize)
	if err != nil {
		return nil, err
	}
	b := &Buffer{MT: mt, NVM: dev == e.NVM}
	if e.logged && !b.NVM {
		b.Log = wal.New(e.NVM, e.chunkSize)
	}
	return b, nil
}

// ClosedLocked reports whether Close has begun (Mu held).
func (e *Engine) ClosedLocked() bool { return e.bg.ClosedLocked() }

// Put stores a key-value pair.
func (e *Engine) Put(key, value []byte) error { return e.write(key, value, keys.KindSet) }

// Delete writes a tombstone.
func (e *Engine) Delete(key []byte) error { return e.write(key, nil, keys.KindDelete) }

func (e *Engine) write(key, value []byte, kind keys.Kind) error {
	if len(key) == 0 {
		return errEmptyKey
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	b, err := e.makeRoom()
	if err != nil {
		return err
	}
	e.seq++
	if b.Log != nil {
		if err := b.Log.Append(key, value, e.seq, kind); err != nil {
			return err
		}
	}
	if err := b.MT.Add(key, value, e.seq, kind); err != nil {
		return err
	}
	e.St.Add(stats.UserBytes, int64(len(key)+len(value)))
	if kind == keys.KindDelete {
		e.St.Add(stats.Deletes, 1)
	} else {
		e.St.Add(stats.Puts, 1)
	}
	return nil
}

// makeRoom runs the write ladder and returns the buffer the write goes
// to: the policy's hold and one-time slowdown, then the room check; a
// full buffer waits for room in the queue and for the policy's rotation
// check, then rotates. Called with writeMu held, which alone lets the
// active buffer change, so the caller may use it after Mu is released.
func (e *Engine) makeRoom() (*Buffer, error) {
	slowed := false
	for {
		e.Mu.Lock()
		if e.bg.ClosedLocked() {
			e.Mu.Unlock()
			return nil, kvstore.ErrClosed
		}
		if e.p.Hold != nil && e.p.Hold() {
			e.stallLocked(e.p.Hold)
			continue
		}
		if e.p.Slowdown != nil && !slowed {
			if d := e.p.Slowdown(); d > 0 {
				e.Mu.Unlock()
				time.Sleep(d)
				e.St.Add(stats.CumulativeStallNs, int64(d))
				slowed = true
				continue
			}
		}
		if !e.active.MT.Full() {
			break
		}
		if e.queueFullLocked() {
			e.stallLocked(e.queueFullLocked)
			continue
		}
		if e.p.AtRotation != nil && e.p.AtRotation() {
			e.stallLocked(e.p.AtRotation)
			continue
		}
		if err := e.rotateLocked(); err != nil {
			e.Mu.Unlock()
			return nil, err
		}
		break
	}
	b := e.active
	e.Mu.Unlock()
	return b, nil
}

func (e *Engine) queueFullLocked() bool { return len(e.queue) >= e.p.QueueBound }

// stallLocked blocks the writer while cond holds, recording the interval
// stall. Called with Mu held; returns with it released.
func (e *Engine) stallLocked(cond func() bool) {
	e.St.AddIntervalStall(e.WaitWhile(cond))
	e.Mu.Unlock()
}

// WaitWhile (Mu held) blocks on the job table while cond holds, or until
// Close begins, and returns how long it blocked.
func (e *Engine) WaitWhile(cond func() bool) time.Duration {
	if !cond() {
		return 0
	}
	start := time.Now()
	e.bg.Wait(func() bool { return !cond() })
	return time.Since(start)
}

// L0AtStop reports whether the SSTable tree's L0 is at its stop
// threshold, where LevelDB holds a full memtable and NoveLSM its spill.
func (e *Engine) L0AtStop() bool {
	_, stop := e.LSM.WriteDelay()
	return stop
}

// rotateLocked queues the active buffer and installs its successor.
func (e *Engine) rotateLocked() error {
	next := func(*Buffer) (*Buffer, error) { return e.NewBuffer(e.DRAM, e.memTableSize) }
	if e.p.Next != nil {
		next = e.p.Next
	}
	fresh, err := next(e.active)
	if err != nil {
		return err
	}
	e.queue = append(e.queue, e.active)
	e.active = fresh
	e.bg.Broadcast()
	return nil
}

// retireOne, the retire job, hands the oldest immutable buffer to the
// policy's Retire, then drops it from the queue and frees it. Close
// drains what is queued.
func (e *Engine) retireOne() error {
	e.Mu.Lock()
	b := e.queue[0]
	e.Mu.Unlock()
	if err := e.p.Retire(b); err != nil {
		panic(err)
	}
	e.Mu.Lock()
	e.queue = e.queue[1:]
	e.bg.Broadcast() // Compact or the tree's compaction may be ready now
	e.Mu.Unlock()
	b.release()
	return nil
}

// Rotate queues a non-empty active buffer for retirement, waiting for
// room in the queue.
func (e *Engine) Rotate() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.Mu.Lock()
	defer e.Mu.Unlock()
	if e.active.MT.Empty() {
		return nil
	}
	e.WaitWhile(e.queueFullLocked)
	return e.rotateLocked()
}

// Drain waits until every queued buffer has retired and the policy's
// Compact job and the SSTable tree's compaction are idle.
func (e *Engine) Drain() {
	e.Mu.Lock()
	e.bg.WaitIdle()
	e.Mu.Unlock()
}

// Get returns the newest live value for key: the active buffer, the
// queue newest first, the policy's tier, then the SSTable tree.
func (e *Engine) Get(key []byte) ([]byte, error) {
	e.St.Add(stats.Gets, 1)
	var snap [8]*Buffer // holds the queue at its bound and the active buffer
	e.Mu.Lock()
	bufs := append(append(snap[:0], e.queue...), e.active)
	e.Mu.Unlock()

	for i := len(bufs) - 1; i >= 0; i-- {
		if v, _, kind, ok := bufs[i].MT.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	if e.p.Get != nil {
		if v, kind, ok := e.p.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	if e.LSM != nil {
		if v, _, kind, ok := e.LSM.Get(key); ok {
			return finishGet(v, kind)
		}
	}
	return nil, kvstore.ErrNotFound
}

func finishGet(v []byte, kind keys.Kind) ([]byte, error) {
	if kind == keys.KindDelete {
		return nil, kvstore.ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Scan walks live keys ≥ start in order across every tier.
func (e *Engine) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	e.St.Add(stats.Scans, 1)
	e.Mu.Lock()
	its := []iterx.Iterator{e.active.MT.NewIterator()}
	for _, b := range e.queue {
		its = append(its, b.MT.NewIterator())
	}
	if e.p.Sources != nil {
		its = e.p.Sources(its)
	}
	e.Mu.Unlock()
	if e.LSM != nil {
		its = append(its, e.LSM.Iterators()...)
	}
	return iterx.Scan(iterx.NewVisible(iterx.NewMerging(its...)), start, limit, fn)
}

// Stats returns cost accounting with device traffic and its rates.
func (e *Engine) Stats() stats.Snapshot {
	s := e.St.Snapshot()
	s.Devices = e.devices.Stats()
	s.Derive()
	return s
}

// ResetCounters clears device and cost counters between bench phases.
func (e *Engine) ResetCounters() {
	e.devices.ResetCounters()
	e.St.Reset()
}

// Close shuts the store down: stalled writers return ErrClosed, and the
// runners finish the ready work, tree compactions included, first.
func (e *Engine) Close() error {
	e.bg.Close()
	return nil
}
