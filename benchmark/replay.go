package main

import (
	"fmt"
	"slices"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/pmtable"
	"miodb/internal/vaddr"
	"miodb/internal/vlog"
	"miodb/internal/wal"
)

// The layer replay feeds a workload's own op stream, single-threaded,
// into each layer's public API assembled in core's call order:
//
//	Put:  [vlog.Append →] wal.Append → memtable.Add → on Full():
//	      pmtable.Flush → NewMerge(new, old).Run() level by level →
//	      Repository.Absorb
//	Get:  MemTable.Get → Table.MayContainSafe / Table.GetSafe per level →
//	      Repository.Get [→ vlog.Read]
//	Scan: iterx.NewVisible(iterx.NewMerging(...)) over the same tables
//
// One span per call, the user op its parent. What it leaves out is what
// core adds around these calls — commit queue, version pin and edits,
// manifest records, stats — which is exactly the remainder the ledger
// reports as core.*_unattributed_*.

// layer indexes the calls the replay times in place.
type layer int

const (
	lWalAppend layer = iota
	lMemAdd
	lMemGet
	lFlush
	lMerge
	lAbsorb
	lTableGet
	lRepoGet
	lSeek
	lVisibleNext
	lVlogAppend
	lVlogRead
	numLayers
)

var layerNames = [numLayers]string{
	"wal.Append", "memtable.Add", "memtable.Get", "pmtable.Flush", "pmtable.Merge.Run",
	"pmtable.Repository.Absorb", "pmtable.Table.GetSafe", "pmtable.Repository.Get",
	"iterx.Seek", "iterx.Visible.Next", "vlog.Append", "vlog.Read",
}

// span is one timed call: which layer, which user op caused it, when.
type span struct {
	layer   layer
	op      uint32 // index of the parent user op in the replayed stream
	startNs int64  // since the replay began
	durNs   int64
	units   int64 // entries or nodes the call handled (1 for per-op calls)
}

type layerStat struct {
	ns, calls, units int64
}

// flushCounts is device traffic the replay reads off the NVM model
// around its flush and merge calls.
type flushCounts struct {
	flushes, flushNVMWrites, mergeNVMBytes int64
}

// replayer is the engine's data path without the engine.
type replayer struct {
	s  *spec
	ks *keySpace

	dram, nvmDev *nvm.Device
	chunk        int
	memSize      int64
	nlevels      int
	fp           pmtable.FilterParams

	log    *wal.Log
	mem    *memtable.MemTable
	minSeq uint64
	seq    uint64
	nextID uint64
	levels [][]*pmtable.Table // per level, newest first
	repo   *pmtable.Repository
	vl     *vlog.Store

	scanLen int      // the workload's, or 20 where it has no Scan to take it from
	version []uint32 // the replay's own model: last version put per key
	value   []byte
	fail    *failures
	checked int

	t0        time.Time
	clockNs   int64 // cost of one time.Now pair, subtracted per call
	stat      [numLayers]layerStat
	keepSpans bool
	spans     []span
	curOp     uint32

	// pre and preFlush hold the preload's share of stat and flush.
	pre             [numLayers]layerStat
	flush, preFlush flushCounts
}

func newReplayer(s *spec, ks *keySpace, fail *failures, keepSpans bool) (*replayer, error) {
	// The sizes core.Options defaults to.
	const memSize, chunk, nlevels = 64 << 10, 256 << 10, 8
	space := vaddr.NewSpace()
	r := &replayer{
		s: s, ks: ks, fail: fail, keepSpans: keepSpans,
		dram:    nvm.NewDevice(space, nvm.DRAMProfile()),
		nvmDev:  nvm.NewDevice(space, nvm.NVMProfile()),
		chunk:   chunk,
		memSize: memSize,
		nlevels: nlevels,
		fp:      pmtable.FilterParams{ExpectedKeys: 1 << 14, BitsPerKey: 16},
		levels:  make([][]*pmtable.Table, nlevels),
		scanLen: s.scanLen,
		version: make([]uint32, s.keys),
		value:   make([]byte, s.valueLen),
	}
	var err error
	if r.repo, err = pmtable.NewRepository(r.nvmDev, chunk); err != nil {
		return nil, err
	}
	if s.valueLog {
		r.vl = vlog.NewNVM(r.nvmDev, vlog.Config{SegmentSize: 4 * memSize, GCDeadRatio: 0.5})
	}
	if err := r.freshMem(); err != nil {
		return nil, err
	}
	if r.scanLen == 0 {
		r.scanLen = 20
	}
	r.clockNs = clockOverhead()
	r.t0 = time.Now()
	return r, nil
}

// clockOverhead is the median cost of a time.Now/time.Since pair.
func clockOverhead() int64 {
	samples := make([]int64, 2001)
	for i := range samples {
		t0 := time.Now()
		samples[i] = int64(time.Since(t0))
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

func (r *replayer) freshMem() error {
	mt, err := memtable.New(r.dram, r.memSize, r.chunk)
	if err != nil {
		return err
	}
	r.mem, r.log, r.minSeq = mt, wal.New(r.nvmDev, r.chunk), r.seq+1
	return nil
}

// record closes the span a call opened at start.
func (r *replayer) record(l layer, start time.Time, units int64) {
	d := int64(time.Since(start)) - r.clockNs
	if d < 0 {
		d = 0
	}
	st := &r.stat[l]
	st.ns += d
	st.calls++
	st.units += units
	if r.keepSpans {
		r.spans = append(r.spans, span{l, r.curOp, int64(start.Sub(r.t0)), d, units})
	}
}

func (r *replayer) put(id uint32) error {
	key := r.ks.key(id)
	r.version[id]++
	fillValue(r.value, id, r.version[id])
	r.seq++
	val, kind := r.value, keys.KindSet
	if r.vl != nil && len(val) >= 1<<10 {
		t := time.Now()
		addr, err := r.vl.Append(key, val, r.seq)
		r.record(lVlogAppend, t, 1)
		if err != nil {
			return fmt.Errorf("vlog append: %w", err)
		}
		val, kind = addr.Encode(nil), keys.KindValuePtr
	}
	t := time.Now()
	err := r.log.Append(key, val, r.seq, kind)
	r.record(lWalAppend, t, 1)
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	t = time.Now()
	err = r.mem.Add(key, val, r.seq, kind)
	r.record(lMemAdd, t, 1)
	if err != nil {
		return fmt.Errorf("memtable add: %w", err)
	}
	if r.mem.Full() {
		return r.rotate()
	}
	return nil
}

func (r *replayer) onDrop(value []byte, kind keys.Kind) {
	if kind != keys.KindValuePtr {
		return
	}
	if a, ok := vlog.DecodeAddr(value); ok {
		r.vl.MarkDead(a)
	}
}

// rotate does synchronously what core's flusher, per-level compactors and
// lazy-copy thread do in the background: flush the full memtable in one
// piece, merge pairs downward, absorb what reaches the last level.
func (r *replayer) rotate() error {
	if r.mem.Empty() {
		return nil
	}
	entries := r.mem.Count()
	w0 := r.nvmDev.Counters().Writes
	r.nextID++
	t := time.Now()
	table := pmtable.Flush(r.nvmDev, r.mem, r.nextID, r.minSeq, r.seq, r.fp)
	r.record(lFlush, t, entries)
	r.flush.flushes++
	r.flush.flushNVMWrites += r.nvmDev.Counters().Writes - w0
	r.mem.Release()
	r.log.Release()
	if err := r.freshMem(); err != nil {
		return err
	}
	r.levels[0] = append([]*pmtable.Table{table}, r.levels[0]...)

	last := r.nlevels - 1
	for l := 0; l < last; l++ {
		for len(r.levels[l]) >= 2 {
			lv := r.levels[l]
			newT, oldT := lv[len(lv)-2], lv[len(lv)-1]
			m := pmtable.NewMerge(newT, oldT)
			if r.vl != nil {
				m.OnDrop = r.onDrop
			}
			b0 := r.nvmDev.Counters().BytesWritten
			t := time.Now()
			result := m.Run()
			r.record(lMerge, t, m.Moved())
			r.flush.mergeNVMBytes += r.nvmDev.Counters().BytesWritten - b0
			newT.DropRegions()
			oldT.DropRegions()
			r.levels[l] = lv[:len(lv)-2]
			r.levels[l+1] = append([]*pmtable.Table{result}, r.levels[l+1]...)
		}
	}
	for len(r.levels[last]) > 0 {
		lv := r.levels[last]
		tbl := lv[len(lv)-1]
		policy := pmtable.AbsorbPolicy{}
		if r.vl != nil {
			policy.OnDrop = r.onDrop
		}
		t := time.Now()
		err := r.repo.AbsorbWith(tbl, policy)
		r.record(lAbsorb, t, tbl.Count())
		if err != nil {
			return fmt.Errorf("absorb: %w", err)
		}
		tbl.ReleaseRegions(r.nvmDev)
		r.levels[last] = lv[:len(lv)-1]
		// core's repository rebuild, same trigger, so the replayed
		// repository carries the garbage the engine's would.
		if g, live := r.repo.GarbageBytes(), r.repo.UserBytes(); g >= 4*r.memSize && g >= 2*live {
			fresh, err := r.repo.Compacted(r.chunk)
			if err != nil {
				return fmt.Errorf("repository rebuild: %w", err)
			}
			r.repo.Release()
			r.repo = fresh
		}
	}
	return nil
}

func (r *replayer) tables(fn func(t *pmtable.Table) bool) {
	for _, lv := range r.levels {
		for _, t := range lv {
			if !fn(t) {
				return
			}
		}
	}
}

func (r *replayer) get(id uint32) {
	key := r.ks.key(id)
	t := time.Now()
	val, _, kind, ok := r.mem.Get(key)
	r.record(lMemGet, t, 1)
	if !ok {
		r.tables(func(tbl *pmtable.Table) bool {
			if !tbl.MayContainSafe(key) {
				return true
			}
			t := time.Now()
			val, _, kind, ok = tbl.GetSafe(key)
			r.record(lTableGet, t, 1)
			return !ok
		})
	}
	if !ok {
		t := time.Now()
		val, _, kind, ok = r.repo.Get(key)
		r.record(lRepoGet, t, 1)
	}
	if ok && kind == keys.KindValuePtr {
		a, _ := vlog.DecodeAddr(val)
		t := time.Now()
		_, v, _, err := r.vl.Read(a)
		r.record(lVlogRead, t, 1)
		if err != nil {
			r.fail.add("replay get %s: vlog read: %v", key, err)
		}
		val = v
	}
	r.checked++
	want := r.version[id]
	switch {
	case want == 0 && ok && kind != keys.KindDelete:
		r.fail.add("replay get %s: found a key never written", key)
	case want > 0:
		if ver, valid := checkValue(val, id, r.s.valueLen); !ok || !valid || ver != want {
			r.fail.add("replay get %s: version %d (found %v valid %v), want %d", key, ver, ok, valid, want)
		}
	}
}

func (r *replayer) sources() []iterx.Iterator {
	src := []iterx.Iterator{r.mem.NewIterator()}
	r.tables(func(t *pmtable.Table) bool {
		src = append(src, t.NewSafeIterator())
		return true
	})
	return append(src, r.repo.NewIterator())
}

func (r *replayer) scan(id uint32) {
	key := r.ks.key(id)
	it := iterx.NewVisible(iterx.NewMerging(r.sources()...))
	t := time.Now()
	it.Seek(key)
	r.record(lSeek, t, 1)
	n := 0
	for ; n < r.scanLen && it.Valid(); n++ {
		// Only a preloaded key space is dense; on a sparse one which keys
		// exist yet depends on how far the stream has run.
		if kid, ok := keyID(it.Key()); !ok || (r.s.preload && kid != id+uint32(n)) || kid < id+uint32(n) {
			r.fail.add("replay scan from %s: entry %d is %q", key, n, it.Key())
		}
		t := time.Now()
		it.Next()
		r.record(lVisibleNext, t, 1)
	}
	r.checked++
	want := r.scanLen
	if rest := r.ks.n - int(id); rest < want {
		want = rest
	}
	if r.s.preload && n != want {
		r.fail.add("replay scan from %s: %d entries, want %d", key, n, want)
	}
}

// run replays the preload (if the workload has one) and then the stream.
// limit caps the ops replayed, so a large-value workload's log fits in
// memory; the per-call figures do not depend on how far the stream runs.
func (r *replayer) run(stream []op, limit int) error {
	if r.s.preload {
		for id := 0; id < r.s.keys; id++ {
			if err := r.put(uint32(id)); err != nil {
				return err
			}
		}
		// The engine drains after preloading: FlushAll flushes the
		// memtable and lets pairs merge; a lone table stays in its level.
		// The preload's calls are kept apart, as the fallback figures for
		// a layer the measured stream never calls.
		if err := r.rotate(); err != nil {
			return err
		}
		r.pre, r.stat = r.stat, [numLayers]layerStat{}
		r.preFlush, r.flush = r.flush, flushCounts{}
		r.spans = r.spans[:0]
	}
	if len(stream) > limit {
		stream = stream[:limit]
	}
	for i, o := range stream {
		r.curOp = uint32(i)
		switch o.kind {
		case opPut:
			if err := r.put(o.id); err != nil {
				return err
			}
		case opGet:
			r.get(o.id)
		default:
			r.scan(o.id)
		}
	}
	return nil
}
