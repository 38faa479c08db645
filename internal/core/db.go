package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"miodb/internal/bloom"
	"miodb/internal/iterx"
	"miodb/internal/jobs"
	"miodb/internal/keys"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/pmtable"
	"miodb/internal/stats"
	"miodb/internal/vaddr"
	"miodb/internal/vfs"
	"miodb/internal/vlog"
	"miodb/internal/wal"
)

// ErrNotFound is returned by Get for keys with no live value. It is the
// shared sentinel every store in this repository returns, so harness code
// can compare directly.
var ErrNotFound = kvstore.ErrNotFound

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = kvstore.ErrClosed

// DB is a MioDB instance: DRAM MemTable + WAL in front of an elastic
// multi-level PMTable buffer in NVM, with a huge repository PMTable (or
// SSTable levels on SSD) at the bottom.
type DB struct {
	opts  Options
	space *vaddr.Space
	dram  *nvm.Device
	nvm   *nvm.Device
	ssd   *lsm.Levels // nil in pure in-memory mode
	repo  *pmtable.Repository
	st    *stats.Recorder
	fp    pmtable.FilterParams

	// vlog is the value log behind key-value separation (nil when
	// Options.ValueLog is nil — the byte-for-byte inline engine).
	vlog *vlog.Store

	// commitMu serializes commits: every Put, Delete, DeleteRange, batch
	// and value-log GC relocation runs the one commit body (commitLocked)
	// under it, and so does every memtable rotation (makeRoomForWrite,
	// FlushAll, Checkpoint), so rotation and an insert can never
	// interleave. Lock order: commitMu → mu.
	commitMu sync.Mutex

	seq     atomic.Uint64
	tableID atomic.Uint64

	// memTarget is the dynamic capacity for the *next* memtable, read at
	// rotation time (newMemHandle) and adjusted by SetMemTableTarget —
	// the memory governor's knob. It never resizes the live arena: a
	// target change only takes effect at the next rotation boundary, so
	// an in-flight insert always sees the capacity its memtable was
	// built with. Initialized to opts.MemTableSize; when nobody calls
	// SetMemTableTarget the write path is byte-identical to a static
	// configuration.
	memTarget atomic.Int64

	// current publishes the installed version snapshot to the lock-free
	// read path; it is written only under db.mu (editVersionLocked) but
	// read by anyone. See epoch.go for the reclamation protocol.
	current atomic.Pointer[version]

	// Epoch-based reader reclamation (epoch.go).
	epoch        atomic.Uint64
	epochSlots   []epochSlot
	gracePending atomic.Int64 // retired versions awaiting their grace period
	// sweepMu serializes grace-period sweeps and guards db.oldest. Lock
	// order: db.mu → sweepMu (readers take sweepMu alone, and only via
	// TryLock).
	sweepMu sync.Mutex

	// closedFlag mirrors db.closed for the lock-free read path: readers
	// check it before and after pinning a version, so Close (which waits
	// for reader epochs to drain before tearing the store down) is never
	// raced by a late snapshot.
	closedFlag atomic.Bool

	// degraded mirrors db.bgErr != nil (stored under db.mu, beside it).
	// With closedFlag it lets the per-commit write gate answer from two
	// atomics instead of queueing on db.mu behind the flusher and the
	// mergers each rotation has just woken.
	degraded atomic.Bool

	// Snapshot registry (snapshot.go). snaps holds every open long-lived
	// Snapshot; snapMin caches the lowest registered bound — the "horizon"
	// compactions compare superseding sequence numbers against before
	// physically dropping an older version. The encoding reserves 0 for
	// "no snapshots registered" (= horizon keys.MaxSeq): a snapshot bound
	// of 0 can only belong to an empty store, where no entry is ever
	// visible to it and no drop can matter. A stale horizon read is always
	// safe — any snapshot registered later bounds at or above every
	// committed sequence number, so it can never need an entry that was
	// already superseded when it was created.
	snapMu  sync.Mutex
	snaps   map[*Snapshot]struct{}
	snapMin atomic.Uint64

	// readLevels holds the per-level read-path observability counters
	// (bloom probes/skips/false positives, hits); indexed like levels,
	// updated lock-free by readers.
	readLevels []readLevelWork

	// mu guards the version-chain edits and all structural state below.
	mu     sync.Mutex
	bg     *jobs.Table // the background job table on mu (runner.go)
	oldest *version
	closed bool
	// vlogPending asks the value-log GC job for a pass
	// (kickValueLogGCLocked); the store is not idle while it is set.
	vlogPending bool
	// bgErr is the sticky background error: once a background I/O path
	// fails persistently the store degrades to read-only (see degrade.go).
	bgErr error

	manifest      *manifestLog
	manifestEdits int          // delta records in the current generation
	markSlots     []vaddr.Addr // persisted insertion-mark slot per level
	levelStats    []levelWork  // per-level compaction counters (under mu)

	// repoAppliedSeq (under mu) is the highest range-tombstone sequence a
	// repository rebuild has fully applied; a tombstone at or below it —
	// with every remaining table/memtable entry newer than it — is spent
	// and can be dropped from the side table and the manifest.
	repoAppliedSeq uint64

	wg sync.WaitGroup
}

// levelWork accumulates one level's compaction counters.
type levelWork struct {
	merges       int64
	nodesMoved   int64
	garbageBytes int64
}

// readLevelWork accumulates one elastic-buffer level's read-path counters,
// updated lock-free by concurrent readers. Padded so the per-level hot
// counters of adjacent levels do not share a cache line.
type readLevelWork struct {
	// probes counts tables whose filter was consulted for a Get.
	probes atomic.Int64
	// skips counts probes the bloom filter answered "definitely absent"
	// for, saving a list search.
	skips atomic.Int64
	// falsePositives counts probes that passed the filter but found no
	// key in the table — the measured (not theoretical) FP cost.
	falsePositives atomic.Int64
	// hits counts Gets satisfied at this level.
	hits atomic.Int64
	_    [128 - 4*8]byte
}

// Open creates a fresh DB.
func Open(opts Options) (*DB, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := Refusal(OpOpen, opts, 1, false); err != nil {
		return nil, err
	}
	space := vaddr.NewSpace()
	db := &DB{
		opts:  opts,
		space: space,
		dram:  nvm.NewDevice(space, nvm.DRAMProfile()),
		nvm:   nvm.NewDevice(space, nvm.NVMProfile()),
		st:    &stats.Recorder{},
		fp: pmtable.FilterParams{
			ExpectedKeys: opts.FilterCapacity,
			BitsPerKey:   opts.BloomBitsPerKey,
		},
	}
	db.bg = jobs.New(&db.mu, &db.wg)
	db.memTarget.Store(opts.MemTableSize)
	db.levelStats = make([]levelWork, opts.Levels)
	db.readLevels = make([]readLevelWork, opts.Levels)
	db.initEpochs()
	db.applySimulation()

	// The superblock occupies the space's first region so that recovery
	// can find it without any external root.
	db.manifest = newManifestLog(db.nvm, opts.Levels)
	db.markSlots = make([]vaddr.Addr, opts.Levels)
	for i := range db.markSlots {
		slot, err := db.manifest.allocSlot()
		if err != nil {
			return nil, err
		}
		db.markSlots[i] = slot
	}

	if opts.SSD != nil {
		disk := opts.SSD.Disk
		if disk == nil {
			disk = vfs.NewDisk(vfs.SSDProfile())
		}
		disk.SetSimulation(opts.Simulate)
		disk.SetTimeScale(opts.TimeScale)
		lo := opts.SSD.LSM
		lo.Disk = disk
		lo.Stats = db.st
		db.ssd = lsm.New(lo, db.bg)
	} else {
		repo, err := pmtable.NewRepository(db.nvm, opts.ChunkSize)
		if err != nil {
			return nil, err
		}
		db.repo = repo
	}

	if opts.ValueLog != nil {
		db.initValueLog()
	}

	mem, err := db.newMemHandle()
	if err != nil {
		return nil, err
	}
	root := newRootVersion()
	root.mem = mem
	root.levels = make([][]levelEntry, opts.Levels)
	root.repo = db.repo
	db.current.Store(root)
	db.oldest = root

	if err := db.writeManifestLocked(); err != nil {
		return nil, err
	}
	db.startBackground()
	return db, nil
}

// Devices exposes the DRAM and NVM device models (fault-injection hooks
// for tests and the torture harness).
func (db *DB) Devices() (dram, nvmDev *nvm.Device) { return db.dram, db.nvm }

// LastSeq returns the newest assigned sequence number.
func (db *DB) LastSeq() uint64 { return db.seq.Load() }

func (db *DB) applySimulation() {
	db.dram.SetSimulation(db.opts.Simulate)
	db.nvm.SetSimulation(db.opts.Simulate)
	db.dram.SetTimeScale(db.opts.TimeScale)
	db.nvm.SetTimeScale(db.opts.TimeScale)
}

func (db *DB) newMemHandle() (*memHandle, error) {
	// The capacity comes from the dynamic target, not opts: this is the
	// rotation boundary where a SetMemTableTarget call takes effect.
	// Its bloom filter, made with the tables' parameters, becomes the L0
	// table's at the flush.
	mt, err := memtable.NewFiltered(db.dram, db.memTarget.Load(), db.opts.ChunkSize, db.fp.NewFilter())
	if err != nil {
		return nil, err
	}
	h := &memHandle{mt: mt, bornSeq: db.seq.Load()}
	if !db.opts.DisableWAL {
		// The log is sized like its memtable: a record never outgrows the
		// node that holds the same entry, so the log spills past its first
		// chunk only when the memtable does.
		h.log = wal.Attach(db.nvm, db.nvm.NewRegionGrain(db.opts.ChunkSize, mt.Region().Grain()))
	}
	return h, nil
}

// initValueLog builds the value-log store. The manifest must already
// exist: every new segment is announced through a manifest record before
// the first pointer into it can commit.
func (db *DB) initValueLog() {
	vc := db.opts.ValueLog
	db.vlog = vlog.NewNVM(db.nvm, vlog.Config{SegmentSize: vc.SegmentSize, GCDeadRatio: vc.GCDeadRatio})
	db.vlog.OnNewSegment = db.logVlogSegment
}

// Put writes a key-value pair.
func (db *DB) Put(key, value []byte) error {
	return db.write(key, value, keys.KindSet)
}

// Delete writes a tombstone for key.
func (db *DB) Delete(key []byte) error {
	return db.write(key, nil, keys.KindDelete)
}

// write is the client write path: it returns once the operation is
// logged and inserted. MioDB's elastic buffer means it never throttles
// or blocks on compaction here — the property behind the flat latency
// trace of Fig 8. The backlog a burst defers shows in the Stats gauges
// (backlogOf), not as a stall.
func (db *DB) write(key, value []byte, kind keys.Kind) error {
	if len(key) == 0 {
		return fmt.Errorf("miodb: empty key")
	}
	_, err := db.commit(batchOp{key: key, value: value, kind: kind}, nil)
	return err
}

// commit times one client write request end to end — WAL append and
// memtable insert — and charges every record
// with the measured latency under its own op type.
//
// A request is either one op (Put, Delete, DeleteRange), passed by value
// with ops nil, or a batch's ops. Keeping the single op out of a slice
// lets it commit from a one-element array on the stack, so a Put does
// not allocate. It returns the request's last sequence number.
func (db *DB) commit(op batchOp, ops []batchOp) (uint64, error) {
	start := time.Now()
	if ops == nil {
		one := [1]batchOp{op}
		ops = one[:]
	}
	db.commitMu.Lock()
	seq, err := db.commitLocked(ops, false)
	db.commitMu.Unlock()
	if err == nil {
		d := time.Since(start)
		puts, deletes := countKinds(ops)
		db.st.RecordOpN(stats.OpPut, d, puts)
		db.st.RecordOpN(stats.OpDelete, d, deletes)
	}
	return seq, err
}

// countKinds splits a commit request's records into puts and deletes;
// point and range tombstones both count as deletes.
func countKinds(ops []batchOp) (puts, deletes int64) {
	for _, op := range ops {
		if op.kind == keys.KindSet {
			puts++
		} else {
			deletes++
		}
	}
	return puts, deletes
}

// commitLocked is the one commit body: it applies ops — a single op or a
// batch — with consecutive sequence numbers, a single WAL append framing
// every record, then memtable inserts, and returns the last sequence
// number it assigned. Callers hold commitMu, so rotation cannot
// interleave with the insert. A system write (sys: a value-log GC
// relocation) skips the user-byte, op and write-group counters: it charges the device meters, as real write amplification,
// but is not a client write.
func (db *DB) commitLocked(ops []batchOp, sys bool) (uint64, error) {
	if err := db.writeGate(); err != nil {
		return 0, err
	}
	if err := db.makeRoomForWrite(); err != nil {
		return 0, err
	}

	// commitMu (held by every caller) also serializes rotation, so the
	// installed version's memtable is stable for the whole commit.
	mem := db.current.Load().mem

	nops := len(ops)
	firstSeq := db.seq.Load() + 1
	lastSeq := firstSeq + uint64(nops) - 1

	// With key-value separation on, large values are appended to the value
	// log here — value bytes before pointer, so the WAL record that
	// commits a pointer is durable strictly after the bytes it references
	// — and the ops carry 16-byte addresses.
	var sepBytes int64
	if db.vlog != nil {
		var err error
		ops, sepBytes, err = db.separateOps(ops, firstSeq)
		if err != nil {
			// Separated values may sit in the log unreferenced (dead space
			// GC reclaims later); burn the sequence range so the seqs
			// stamped into those entries are never reused by an acked
			// commit.
			db.seq.Store(lastSeq)
			return 0, err
		}
	}

	// Log every record first with one coalesced append: a crash during
	// insertion replays every record from the WAL (all-or-prefix per
	// commit), and the NVM device is charged one sequential write instead
	// of one per record. A one-op commit frames its record on the stack.
	if mem.log != nil {
		var one [1]wal.Record
		recs := one[:0]
		if nops > 1 {
			recs = make([]wal.Record, 0, nops)
		}
		for i, op := range ops {
			recs = append(recs, wal.Record{Key: op.key, Value: op.value, Seq: firstSeq + uint64(i), Kind: op.kind})
		}
		logged := mem.log.Count()
		if err := mem.log.AppendBatch(recs); err != nil {
			// A prefix of the commit may be durably logged (all-or-prefix
			// per run): an earlier run written, or a torn one that
			// poisoned the log. Then burn the whole sequence range so no
			// later commit can reuse a sequence number a logged record
			// already carries — replay must never see two records with
			// one seq — and likewise when the value log may hold entries
			// stamped with them. The commit is reported failed; its logged
			// prefix may resurface after a crash as unacknowledged writes,
			// the standard all-or-prefix contract. A commit that left
			// nothing behind leaves its range to the next one.
			if mem.log.Count() > logged || mem.log.Poisoned() || db.vlog != nil {
				db.seq.Store(lastSeq)
			}
			if mem.log.Poisoned() {
				// A torn prefix is on the media: nothing appended behind
				// it could ever be replayed, so the store must stop
				// acknowledging writes.
				db.degrade("wal append", err)
			}
			return 0, err
		}
	}

	seq := firstSeq
	var userBytes int64
	var puts, deletes int64
	for _, op := range ops {
		if op.kind == keys.KindRangeDelete {
			// Logged like any record, but never inserted into the skip
			// list: the tombstone lands in the version side table (and
			// on the handle, for the flush-time durability handoff).
			db.registerRangeTombstone(mem, rangeTombstone{
				start: append([]byte(nil), op.key...),
				end:   append([]byte(nil), op.value...),
				seq:   seq,
			})
			deletes++
			seq++
			continue
		}
		if err := mem.mt.Add(op.key, op.value, seq, op.kind); err != nil {
			// Every record is already durably logged: burn the whole
			// range and keep the memtable's seq window covering what
			// did land.
			db.seq.Store(lastSeq)
			if seq > firstSeq {
				if mem.minSeq == 0 {
					mem.minSeq = firstSeq
				}
				if seq-1 > mem.maxSeq {
					mem.maxSeq = seq - 1
				}
			}
			return 0, err
		}
		userBytes += int64(len(op.key) + len(op.value))
		if op.kind == keys.KindDelete {
			deletes++
		} else {
			puts++
		}
		seq++
	}
	db.seq.Store(lastSeq)
	if mem.minSeq == 0 {
		mem.minSeq = firstSeq
	}
	mem.maxSeq = lastSeq

	if !sys {
		// sepBytes restores the user-byte count of separated values (the
		// ops only carry their 16-byte pointers) so write amplification
		// keeps dividing by what the client actually wrote.
		db.st.Add(stats.UserBytes, userBytes+sepBytes)
		db.st.Add(stats.Puts, puts)
		db.st.Add(stats.Deletes, deletes)
		db.st.AddWriteGroup(nops)
	}
	return lastSeq, nil
}

// separateOps implements the key-value split on a committing op slice:
// every KindSet whose value is at or above the threshold has its bytes
// appended to the value log (stamped with the sequence number it will
// commit under) and is rewritten into a KindValuePtr op carrying the
// 16-byte address. The input slice is never mutated — a rewrite works on
// a fresh copy — so callers may share or reuse their slices. The second
// result is the separated user-byte delta (original value length minus
// pointer length, summed), which the caller folds back into the
// user-byte accounting.
func (db *DB) separateOps(ops []batchOp, firstSeq uint64) ([]batchOp, int64, error) {
	threshold := db.opts.ValueLog.Threshold
	out := ops
	var ptrs []byte // every pointer of the commit, in one backing array
	var sepBytes int64
	seq := firstSeq
	for i := range ops {
		op := ops[i]
		if op.kind == keys.KindSet && len(op.value) >= threshold {
			addr, err := db.vlog.Append(op.key, op.value, seq)
			if err != nil {
				return nil, 0, err
			}
			if ptrs == nil {
				out = append([]batchOp(nil), ops...)
				ptrs = make([]byte, 0, (len(ops)-i)*vlog.AddrSize)
			}
			ptrs = addr.Encode(ptrs)
			out[i] = batchOp{key: op.key, value: ptrs[len(ptrs)-vlog.AddrSize : len(ptrs) : len(ptrs)], kind: keys.KindValuePtr}
			sepBytes += int64(len(op.value) - vlog.AddrSize)
		}
		seq++
	}
	return out, sepBytes, nil
}

// registerRangeTombstone publishes a committed range tombstone: into the
// current version's copy-on-write side table (read visibility) and onto
// the active memtable handle (durability handoff — the flush that retires
// the handle's WAL carries its tombstones into a manifest record first).
// Callers hold commitMu; the version edit takes db.mu, respecting the
// commitMu → mu lock order.
func (db *DB) registerRangeTombstone(mem *memHandle, t rangeTombstone) {
	db.mu.Lock()
	db.editVersionLocked(func(v *version) {
		v.rangeDels = appendRangeDel(v.rangeDels, t)
	})
	mem.rangeDels = append(mem.rangeDels, t)
	db.mu.Unlock()
}

// DeleteRange deletes every key k with start ≤ k < end in one O(1)
// logical operation; an empty end deletes every key ≥ start. The range
// tombstone commits through the normal write pipeline (WAL record, its
// own sequence number, batchable) and is honored by
// every read path immediately; covered entries are physically dropped
// later by zero-copy merges, lazy-copy absorbs, and repository
// compaction (DESIGN.md §13). Snapshots taken before the DeleteRange
// keep reading the covered keys.
func (db *DB) DeleteRange(start, end []byte) error {
	if len(end) > 0 && bytes.Compare(start, end) >= 0 {
		return nil // empty range
	}
	_, err := db.commit(batchOp{key: start, value: end, kind: keys.KindRangeDelete}, nil)
	return err
}

// makeRoomForWrite rotates a full memtable into the immutable queue. It
// runs inside a commit: only a committing writer (or FlushAll/Checkpoint,
// which take the same commitMu) rotates, so a rotation can never slide
// under an insert. Because every level of the elastic buffer is
// unbounded, rotation never waits on flushing or compaction progress.
func (db *DB) makeRoomForWrite() error {
	if !db.current.Load().mem.mt.Full() {
		return nil
	}
	fresh, err := db.newMemHandle()
	if err != nil {
		return err
	}
	db.mu.Lock()
	old := db.current.Load().mem
	db.editVersionLocked(func(v *version) {
		v.imms = append([]*memHandle{old}, v.imms...)
		v.mem = fresh
	})
	err = db.logRotateLocked(fresh)
	db.mu.Unlock()
	db.st.Add(stats.Rotations, 1)
	// A failed rotate record has already latched the store degraded (the
	// fresh WAL region is unknown to the recoverable manifest, so writes
	// into it could never be replayed); surface the refusal to the writer.
	return err
}

// Get returns the newest live value for key. The search order follows the
// storage hierarchy: memtable → immutable memtables → elastic-buffer
// levels top-down (bloom-filtered) → repository (or SSD levels). Any
// table in level i holds strictly newer data than any table in level i+1,
// so the first hit wins.
//
// The whole lookup is lock-free with respect to db.mu: the version pin
// comes from the striped epoch machinery (epoch.go), so concurrent
// readers never serialize against writers, the flusher, or compaction
// threads. The closed flag is re-validated after pinning — Close latches
// it and then waits for reader epochs to drain, so a reader that slips
// past the first check either bails here or finishes against a snapshot
// Close has not torn down yet.
func (db *DB) Get(key []byte) ([]byte, error) {
	start := time.Now()
	value, err := db.get(key)
	if err != ErrClosed {
		// The striped recorder keeps this off the readers' shared locks —
		// the same trick as the epoch slots.
		db.st.RecordOp(stats.OpGet, time.Since(start))
	}
	return value, err
}

func (db *DB) get(key []byte) ([]byte, error) {
	if db.closedFlag.Load() {
		return nil, ErrClosed
	}
	db.st.Add(stats.Gets, 1)
	pin := db.acquireVersion()
	defer db.releaseVersion(pin)
	if db.closedFlag.Load() {
		return nil, ErrClosed
	}
	return db.getFrom(pin.v, key, keys.MaxSeq)
}

// getFrom is the single point-lookup engine behind DB.Get, Snapshot.Get,
// and GetMulti: newest's hit at bound (keys.MaxSeq for a live read), then
// v's range tombstones, then finishGet. The caller must hold a pin on v
// (or otherwise guarantee it stays readable).
func (db *DB) getFrom(v *version, key []byte, bound uint64) ([]byte, error) {
	value, seq, kind, ok := db.newest(v, key, bound)
	// The first hit is the newest visible version; if a tombstone covers
	// it, every older version has a lower seq and is covered too — the key
	// is gone.
	if !ok || covered(v.rangeDels, key, seq) {
		return nil, ErrNotFound
	}
	return db.finishGet(value, kind)
}

// newest is the point-read probe: the newest raw entry for key with
// sequence ≤ bound reachable through v, unresolved and unfiltered by
// range tombstones. The search order follows the storage hierarchy, so
// the first hit wins; the level probes feed the per-level bloom counters.
// Reads (getFrom) and the value-log collector's liveness check
// (vlogEntryLive) share it. The key is hashed once: every memtable and
// every table has a bloom filter of the same parameters, and a buffer or
// table whose filter misses is skipped without a search.
func (db *DB) newest(v *version, key []byte, bound uint64) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	h := bloom.Hash(key)
	if value, seq, kind, ok = v.mem.mt.GetBounded(key, h, bound); ok {
		return
	}
	for _, imm := range v.imms {
		if value, seq, kind, ok = imm.mt.GetBounded(key, h, bound); ok {
			return
		}
	}
	for li, level := range v.levels {
		// Accumulate this level's filter accounting locally and publish
		// once per touched level: one or two atomic adds per probe instead
		// of one per table.
		var probes, skips, fps int64
		for _, e := range level {
			probes++
			if !e.mayContain(h) {
				skips++
				continue
			}
			if value, seq, kind, ok = e.get(key, bound); ok {
				break
			}
			fps++
		}
		if probes > 0 {
			rl := &db.readLevels[li]
			rl.probes.Add(probes)
			if skips > 0 {
				rl.skips.Add(skips)
			}
			if fps > 0 {
				rl.falsePositives.Add(fps)
			}
			if ok {
				rl.hits.Add(1)
			}
		}
		if ok {
			return
		}
	}
	if v.repo != nil {
		if value, seq, kind, ok = v.repo.GetBounded(key, bound); ok {
			return
		}
	}
	if db.ssd != nil {
		// Snapshots are refused on SSD-mode stores (the on-SSD compactor
		// rewrites tables with no version pinning), so bound is always
		// MaxSeq here; range tombstones still filter by seq.
		return db.ssd.Get(key)
	}
	return nil, 0, 0, false
}

// GetMulti reads several keys as one consistent cut: every lookup runs
// against a single pinned version at a single sequence bound, so a
// concurrent writer's updates are either entirely newer than the cut or
// entirely included — no torn multi-reads. Results are positional:
// values[i] / errs[i] answer keys[i] (ErrNotFound per missing key). No
// snapshot is registered — the pin is call-scoped, and a bound taken
// after pinning protects every entry the pinned version can reach.
func (db *DB) GetMulti(getKeys [][]byte) ([][]byte, []error) {
	if db.closedFlag.Load() {
		return failAll(len(getKeys), ErrClosed)
	}
	pin := db.acquireVersion()
	defer db.releaseVersion(pin)
	if db.closedFlag.Load() {
		return failAll(len(getKeys), ErrClosed)
	}
	// Loaded after the pin: the sequence counter is ahead of every entry
	// reachable through the pinned version, so the bound forms a closed,
	// consistent prefix of history.
	return db.getAll(pin.v, getKeys, db.seq.Load())
}

// getAll is the multi-get loop behind DB.GetMulti and Snapshot.GetMulti:
// every key answered positionally from v at bound, with one OpGet sample
// per key.
func (db *DB) getAll(v *version, getKeys [][]byte, bound uint64) ([][]byte, []error) {
	start := time.Now()
	values := make([][]byte, len(getKeys))
	errs := make([]error, len(getKeys))
	for i, key := range getKeys {
		db.st.Add(stats.Gets, 1)
		values[i], errs[i] = db.getFrom(v, key, bound)
	}
	db.st.RecordOpN(stats.OpGet, time.Since(start), int64(len(getKeys)))
	return values, errs
}

// failAll answers each of n keys with err.
func failAll(n int, err error) ([][]byte, []error) {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return make([][]byte, n), errs
}

func (db *DB) finishGet(value []byte, kind keys.Kind) ([]byte, error) {
	if kind == keys.KindDelete {
		return nil, ErrNotFound
	}
	if kind == keys.KindValuePtr {
		return db.resolveValue(value)
	}
	// Copy out of arena memory: the caller may hold the value past the
	// arena's lifetime.
	return append([]byte(nil), value...), nil
}

// resolveValue dereferences a value-log pointer entry and returns a copy
// of the value bytes. The caller holds a version pin covering the entry,
// so the segment the pointer names cannot have been reclaimed (GC defers
// frees onto the version chain); a failure here is therefore corruption,
// surfaced as vlog.ErrCorrupt.
func (db *DB) resolveValue(ptr []byte) ([]byte, error) {
	a, ok := vlog.DecodeAddr(ptr)
	if !ok || db.vlog == nil {
		return nil, fmt.Errorf("%w: undecodable pointer entry", vlog.ErrCorrupt)
	}
	_, value, _, err := db.vlog.Read(a)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), value...), nil
}

// Iterator walks the store's live keys in order (newest version of each
// key, tombstones hidden).
type Iterator struct {
	db     *DB
	pin    versionPin
	pinned bool
	// onClose runs once on Close, after any pin release — snapshot-derived
	// iterators use it to drop their reference on the owning Snapshot
	// (they share its pin instead of holding their own).
	onClose func()
	it      iterx.Iterator
	err     error
}

// NewIterator returns an iterator over a consistent-as-possible snapshot
// of the store. The iterator pins a version (an epoch pin — an open
// iterator holds its reader epoch, delaying reclamation exactly like an
// RCU read-side critical section); Close releases it. Callers must Close
// every iterator before closing the store: DB.Close waits for reader
// epochs to drain.
//
// Scans taken while a zero-copy merge is mid-flight may observe a key's
// version through either of the merging tables — the Visible wrapper
// collapses duplicates, and each step re-seeks both lists under the
// merge's seqlock so no key is skipped.
func (db *DB) NewIterator() *Iterator {
	db.st.Add(stats.Scans, 1)
	if db.closedFlag.Load() {
		return &Iterator{db: db, it: iterx.NewMerging(), err: ErrClosed}
	}
	pin := db.acquireVersion()
	if db.closedFlag.Load() {
		// Close latched between the pre-check and the pin; back out so
		// the drain in Close is not held up by a doomed iterator.
		db.releaseVersion(pin)
		return &Iterator{db: db, it: iterx.NewMerging(), err: ErrClosed}
	}
	return &Iterator{
		db:     db,
		pin:    pin,
		pinned: true,
		it:     db.versionIterator(pin.v, keys.MaxSeq),
	}
}

// versionIterator assembles the merged, visibility-filtered iterator over
// one version, bounded at maxSeq. The bound/range-tombstone filter layer
// is inserted only when needed, so stores that never call DeleteRange or
// Snapshot keep today's iterator stack unchanged.
func (db *DB) versionIterator(v *version, maxSeq uint64) iterx.Iterator {
	var ssd []iterx.Iterator
	if db.ssd != nil {
		ssd = db.ssd.Iterators()
	}
	// One source per memtable, level entry and the repository, counted
	// first: the list is allocated once and becomes the merge heap.
	n := 2 + len(v.imms) + len(ssd)
	for _, level := range v.levels {
		n += len(level)
	}
	sources := make([]iterx.Iterator, 0, n)
	sources = append(sources, v.mem.mt.NewIterator())
	for _, imm := range v.imms {
		sources = append(sources, imm.mt.NewIterator())
	}
	for _, level := range v.levels {
		for _, e := range level {
			sources = append(sources, e.iterator())
		}
	}
	if v.repo != nil {
		sources = append(sources, v.repo.NewIterator())
	}
	sources = append(sources, ssd...)
	var inner iterx.Iterator = iterx.NewMerging(sources...)
	if dead := deadFn(v.rangeDels); dead != nil || maxSeq != keys.MaxSeq {
		inner = iterx.NewFiltered(inner, maxSeq, dead)
	}
	return iterx.NewVisible(inner)
}

// SeekToFirst positions at the first live key.
func (it *Iterator) SeekToFirst() { it.it.SeekToFirst() }

// Seek positions at the first live key ≥ key.
func (it *Iterator) Seek(key []byte) { it.it.Seek(key) }

// Next advances to the next live key.
func (it *Iterator) Next() { it.it.Next() }

// Valid reports whether the iterator is positioned.
func (it *Iterator) Valid() bool { return it.it.Valid() }

// Key returns the current key (valid until Next/Close).
func (it *Iterator) Key() []byte { return it.it.Key() }

// Value returns the current value (valid until Next/Close). A pointer
// entry is resolved through the value log transparently; a resolution
// failure (corruption) parks in Err and yields nil.
func (it *Iterator) Value() []byte {
	v := it.it.Value()
	if it.db != nil && it.db.vlog != nil && it.it.Kind() == keys.KindValuePtr {
		resolved, err := it.db.resolveValue(v)
		if err != nil {
			it.err = err
			return nil
		}
		return resolved
	}
	return v
}

// Err returns the iterator's sticky error (ErrClosed when the iterator
// was opened against a closed store).
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's version pin (or, for a snapshot-derived
// iterator, its reference on the owning Snapshot).
func (it *Iterator) Close() {
	if it.pinned {
		it.db.releaseVersion(it.pin)
		it.pinned = false
	}
	if it.onClose != nil {
		fn := it.onClose
		it.onClose = nil
		fn()
	}
}

// Scan invokes fn for up to limit live keys starting at start, stopping
// early if fn returns false. limit ≤ 0 means no limit. The slices passed
// to fn alias store memory and are only valid during the callback.
// Like Get, the scan never touches db.mu.
func (db *DB) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	t0 := time.Now()
	it := db.NewIterator()
	defer it.Close()
	// A mid-scan failure (a pointer entry that would not resolve) parks
	// itself on the iterator, and iterx.Scan surfaces it.
	err := iterx.Scan(it, start, limit, fn)
	if err != ErrClosed {
		// One sample per scan, covering the whole range (snapshot pin
		// through last key) — the latency a server-side SCAN request
		// experiences.
		db.st.RecordOp(stats.OpScan, time.Since(t0))
	}
	return err
}

// WaitIdle blocks until all queued flushes, zero-copy merges, lazy-copy
// compactions, value-log GC passes and, in SSD mode, SSTable tree
// compactions have drained (benchmarks call it between load and read
// phases).
func (db *DB) WaitIdle() {
	db.mu.Lock()
	// A degraded store's background runners have stopped: the table's
	// WaitIdle does not wait for queued work that will never drain.
	db.bg.WaitIdle()
	db.mu.Unlock()
}

// FlushAll forces the active memtable out and waits for the store to
// drain fully (benchmarks and orderly shutdown). It takes commitMu, the
// commit lock, so the rotation cannot interleave with an in-flight
// insert.
func (db *DB) FlushAll() error {
	db.commitMu.Lock()
	if err := db.writeGate(); err != nil {
		db.commitMu.Unlock()
		return err
	}
	fresh, err := db.newMemHandle()
	if err != nil {
		db.commitMu.Unlock()
		return err
	}
	db.mu.Lock()
	if db.current.Load().mem.mt.Empty() {
		db.mu.Unlock()
		db.commitMu.Unlock()
		fresh.mt.Release()
		if fresh.log != nil {
			fresh.log.Release()
		}
		db.WaitIdle()
		return nil
	}
	old := db.current.Load().mem
	db.editVersionLocked(func(v *version) {
		v.imms = append([]*memHandle{old}, v.imms...)
		v.mem = fresh
	})
	err = db.logRotateLocked(fresh)
	db.mu.Unlock()
	db.commitMu.Unlock()
	db.st.Add(stats.Rotations, 1)
	if err != nil {
		return err
	}
	db.WaitIdle()
	return db.Err()
}

// Close drains background work and shuts the store down. After the
// closed flag latches, Close waits for every reader epoch to drain —
// readers re-validate the flag right after pinning, so in-flight
// Get/Scan calls exit promptly and no snapshot outlives Close. An
// Iterator the caller forgot to Close holds its epoch pin and therefore
// blocks Close by design.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.mu.Unlock()

	// Let queued work drain before stopping the runners.
	db.WaitIdle()

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.closedFlag.Store(true)
	db.mu.Unlock()
	db.bg.Close()
	db.waitReadersDrained()
	return nil
}

// Stats returns the store's cost accounting: the recorder's counters, the
// devices' traffic (the volatile "dram" first), the read path, the
// backlog and memtable gauges of one version and the value log, with the
// rates derived from them.
func (db *DB) Stats() stats.Snapshot {
	s := db.st.Snapshot()
	s.Devices = []stats.DeviceCounters{db.dram.Counters().Stats(), db.nvm.Counters().Stats()}
	if db.ssd != nil {
		s.Devices = append(s.Devices, db.ssd.Options().Disk.Counters().Stats())
	}
	s.BloomLevels = make([]stats.BloomLevelCounters, len(db.readLevels))
	for i := range db.readLevels {
		rl, l := &db.readLevels[i], &s.BloomLevels[i]
		*l = stats.BloomLevelCounters{
			Level:          i,
			Probes:         rl.probes.Load(),
			Skips:          rl.skips.Load(),
			FalsePositives: rl.falsePositives.Load(),
			Hits:           rl.hits.Load(),
		}
		s.BloomProbes += l.Probes
		s.BloomSkips += l.Skips
		s.BloomFalsePositives += l.FalsePositives
	}
	s.LiveVersions, s.PendingReleases, s.ReadEpoch = db.versionChainGauge()
	v := db.current.Load()
	s.PendingImms, s.PendingImmBytes, s.L0Tables, s.L0Bytes = backlogOf(v)
	s.MemTableTargetBytes, s.MemTableUsedBytes = db.memTarget.Load(), v.mem.mt.ApproximateBytes()
	if db.vlog != nil {
		c := db.vlog.Counters()
		s.ValueLog = stats.ValueLogCounters{
			Enabled:             true,
			Segments:            c.Segments,
			SegmentBytes:        c.SegmentBytes,
			LiveBytes:           c.LiveBytes,
			Appends:             c.Appends,
			AppendedBytes:       c.AppendedBytes,
			GCRelocations:       c.GCRelocations,
			GCRelocatedBytes:    c.GCRelocatedBytes,
			GCSegmentsReclaimed: c.GCSegmentsReclaimed,
			GCReclaimedBytes:    c.GCReclaimedBytes,
		}
	}
	s.Derive()
	return s
}

// backlogOf measures a version's write-path debt: the rotated memtables
// awaiting flush and the level-0 tables awaiting merge. Tables currently
// being merged count both sides (the bytes exist until the merge retires
// the sources).
func backlogOf(v *version) (imms, immBytes, l0Tables, l0Bytes int64) {
	imms = int64(len(v.imms))
	for _, h := range v.imms {
		immBytes += h.mt.ApproximateBytes()
	}
	if len(v.levels) > 0 {
		for _, e := range v.levels[0] {
			l0Tables++
			switch t := e.(type) {
			case tableEntry:
				l0Bytes += t.t.UserBytes()
			case mergeEntry:
				l0Bytes += t.m.New.UserBytes() + t.m.Old.UserBytes()
			}
		}
	}
	return imms, immBytes, l0Tables, l0Bytes
}

// ResetCounters clears device and cost counters (between bench phases).
func (db *DB) ResetCounters() {
	db.dram.ResetCounters()
	db.nvm.ResetCounters()
	if db.ssd != nil {
		db.ssd.Options().Disk.ResetCounters()
	}
	if db.vlog != nil {
		db.vlog.ResetCounters()
	}
	// Atomic field-wise reset: background flush/compaction goroutines may
	// be updating the recorder concurrently, so a struct copy would race.
	db.st.Reset()
	for i := range db.readLevels {
		rl := &db.readLevels[i]
		rl.probes.Store(0)
		rl.skips.Store(0)
		rl.falsePositives.Store(0)
		rl.hits.Store(0)
	}
}

// NVMUsage returns the current NVM footprint in bytes (the elastic
// buffer consumption discussion of §5.4).
func (db *DB) NVMUsage() int64 {
	var total int64
	for _, r := range db.space.Regions() {
		if r.Meter() == vaddr.Meter(db.nvm) {
			total += r.Footprint()
		}
	}
	return total
}

// LevelTableCounts returns the number of tables per elastic-buffer level
// (diagnostics and tests).
func (db *DB) LevelTableCounts() []int {
	v := db.current.Load()
	out := make([]int, len(v.levels))
	for i, l := range v.levels {
		out[i] = len(l)
	}
	return out
}

// RepositoryCount returns the number of unique keys in the repository
// (in-memory mode only).
func (db *DB) RepositoryCount() int64 {
	db.mu.Lock()
	repo := db.repo
	db.mu.Unlock()
	if repo == nil {
		return 0
	}
	return repo.Count()
}

// Recorder exposes the stats recorder for harness integration.
func (db *DB) Recorder() *stats.Recorder { return db.st }
