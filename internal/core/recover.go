package core

import (
	"fmt"
	"sort"

	"miodb/internal/jobs"
	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/pmtable"
	"miodb/internal/stats"
	"miodb/internal/vaddr"
	"miodb/internal/wal"
)

// CrashImage is the persistent state that survives a simulated power
// failure: the virtual address space (whose NVM regions are "persistent")
// and the NVM device bound to it. DRAM regions also physically survive in
// the image — memory is memory — but recovery never touches them,
// modeling their loss; the WAL rebuilds their content (§4.7).
type CrashImage struct {
	Space *vaddr.Space
	NVM   *nvm.Device
}

// CrashForTest simulates a power failure: every background runner exits
// at its next pick without starting another job (queued flushes, merges,
// lazy copies, GC passes and tree compactions are dropped, as a crash
// would drop them), and the NVM state is handed back for recovery. The DB is
// unusable afterwards.
//
// A job already running completes before its runner observes the stop
// flag — goroutines cannot be killed mid-instruction in-process — except
// a value-log GC pass, which stops before its next relocation. Mid-merge
// crash recovery is exercised directly at the pmtable level (Merge.Resume)
// and through manifest-driven recovery tests that construct interrupted
// states.
func (db *DB) CrashForTest() *CrashImage {
	db.mu.Lock()
	db.closed = true
	db.closedFlag.Store(true)
	db.bg.StopLocked()
	db.mu.Unlock()
	db.wg.Wait()
	return &CrashImage{Space: db.space, NVM: db.nvm}
}

// Recover rebuilds a DB from a crash image: it follows the superblock's
// pointer (in the space's first region) to the current manifest
// generation, replays that one generation — its opening snapshot and the
// intact deltas after it; a torn tail just ends it — re-attaches every
// PMTable and the repository, resumes any interrupted zero-copy merge via
// its persisted insertion mark, replays the write-ahead logs (oldest
// first) into a fresh memtable, and publishes the result by rolling a new
// generation, so nothing is ever appended behind a torn record.
//
// opts must match the crashed store's structural options (Levels). The
// compatibility table (compat.go) refuses SSD-resident state: the simulated
// SSD carries no manifest, and the paper's recovery (§4.7) covers NVM only.
func Recover(img *CrashImage, opts Options) (*DB, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := Refusal(OpRecover, opts, 1, false); err != nil {
		return nil, err
	}

	db := &DB{
		opts:  opts,
		space: img.Space,
		dram:  nvm.NewDevice(img.Space, nvm.DRAMProfile()),
		nvm:   img.NVM,
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
	manifest, err := attachManifestLog(db.nvm, img.Space.Region(0))
	if err != nil {
		return nil, fmt.Errorf("miodb: %w", err)
	}
	db.manifest = manifest
	state, err := manifest.replay()
	if err != nil {
		return nil, fmt.Errorf("miodb: manifest replay: %w", err)
	}
	if len(state.levels) != opts.Levels {
		return nil, fmt.Errorf("miodb: crash image has %d levels, options say %d",
			len(state.levels), opts.Levels)
	}
	db.seq.Store(state.lastSeq)
	db.tableID.Store(state.nextTableID)
	db.markSlots = make([]vaddr.Addr, len(state.markSlots))
	for i, s := range state.markSlots {
		db.markSlots[i] = vaddr.Addr(s)
	}

	// Value log: re-attach every recorded segment BEFORE WAL replay — the
	// logs hold pointer records (replay never re-separates values), and a
	// read served right after recovery must be able to resolve them.
	// Attached segments are sealed; fresh appends open new segments with
	// ids at or above the persisted counter, so reclaimed ids never recur.
	if opts.ValueLog == nil && len(state.vlogSegs) > 0 {
		return nil, fmt.Errorf("miodb: crash image has %d value-log segments, options disable the value log",
			len(state.vlogSegs))
	}
	if opts.ValueLog != nil {
		db.initValueLog()
		for _, g := range state.vlogSegs {
			r := img.Space.Region(g.region)
			if r == nil {
				return nil, fmt.Errorf("miodb: value-log segment %d region %d missing", g.id, g.region)
			}
			db.vlog.Attach(g.id, r)
		}
		db.vlog.SetNextID(state.vlogNext)
	}

	// Every NVM resource this attempt allocates is tracked so a recovery
	// that fails (or crashes again) before its publish snapshot releases
	// it: the crash image must stay exactly as recoverable for the next
	// attempt, with no fresh regions leaked into the space.
	var freshHandles []*memHandle
	var freshRepo *pmtable.Repository
	fail := func(err error) (*DB, error) {
		for _, h := range freshHandles {
			h.mt.Release()
			if h.log != nil {
				h.log.Release()
			}
		}
		if freshRepo != nil {
			freshRepo.Release()
		}
		return nil, err
	}

	// Repository.
	if state.hasRepo {
		repoRegion := img.Space.Region(state.repoRegion)
		if repoRegion == nil {
			return nil, fmt.Errorf("miodb: repository region %d missing", state.repoRegion)
		}
		db.repo = pmtable.AttachRepository(db.nvm, repoRegion, vaddr.Addr(state.repoHead))
	} else {
		repo, err := pmtable.NewRepository(db.nvm, opts.ChunkSize)
		if err != nil {
			return nil, err
		}
		freshRepo = repo
		db.repo = repo
	}

	attachTable := func(ts tableState) (*pmtable.Table, error) {
		regions := make([]*vaddr.Region, 0, len(ts.regions))
		for _, ri := range ts.regions {
			r := img.Space.Region(ri)
			if r == nil {
				return nil, fmt.Errorf("miodb: table %d region %d missing", ts.id, ri)
			}
			regions = append(regions, r)
		}
		t := pmtable.Attach(img.Space, vaddr.Addr(ts.head), ts.id, regions, db.fp)
		t.MinSeq, t.MaxSeq = ts.minSeq, ts.maxSeq
		return t, nil
	}

	// Levels: re-attach tables; interrupted merges resume synchronously
	// so recovery hands back a consistent buffer.
	root := newRootVersion()
	root.levels = make([][]levelEntry, opts.Levels)
	root.rangeDels = append([]rangeTombstone(nil), state.rangeDels...)
	// The side-table invariant is seq-ascending; the manifest writes it in
	// that order, but sort defensively — replay merges delta sections.
	sort.Slice(root.rangeDels, func(i, j int) bool {
		return root.rangeDels[i].seq < root.rangeDels[j].seq
	})
	type pendingMerge struct {
		level int
		merge *pmtable.Merge
		mark  vaddr.Addr
	}
	var pending []pendingMerge
	for level, lvl := range state.levels {
		for _, ent := range lvl {
			if !ent.isMerge {
				t, err := attachTable(ent.table)
				if err != nil {
					return fail(err)
				}
				root.levels[level] = append(root.levels[level], tableEntry{t})
				continue
			}
			newT, err := attachTable(ent.merge.newT)
			if err != nil {
				return fail(err)
			}
			oldT, err := attachTable(ent.merge.oldT)
			if err != nil {
				return fail(err)
			}
			m := pmtable.NewMerge(newT, oldT)
			slot := vaddr.Addr(ent.merge.markSlot)
			m.SetPersistSlot(manifest.super, slot)
			mark := vaddr.Addr(manifest.super.Load64(slot))
			pending = append(pending, pendingMerge{level: level, merge: m, mark: mark})
			// Placeholder entry; replaced by the resumed result below.
			root.levels[level] = append(root.levels[level], mergeEntry{m})
		}
	}

	// Fresh memtable + WAL, then replay the crashed logs oldest-first,
	// re-logging every entry so a second crash is equally recoverable.
	//
	// Replay rotates the memtable exactly like the foreground write path:
	// when the live memtable fills, it is sealed into the immutable queue
	// and a fresh handle takes over, so a crashed store whose logs hold
	// more than one memtable's worth of updates recovers without
	// overflowing the DRAM arena. Rotation during replay does NOT append
	// rotate records to the manifest — the fresh WAL regions become known
	// only through the full snapshot written below. Until that snapshot
	// lands, a second crash replays the *old* WAL regions again (they are
	// only released after the snapshot), so no update is duplicated or
	// lost either way.
	mem, err := db.newMemHandle()
	if err != nil {
		return fail(err)
	}
	freshHandles = append(freshHandles, mem)
	root.mem = mem
	root.repo = db.repo
	db.current.Store(root)
	db.oldest = root

	for _, ri := range state.walRegions {
		r := img.Space.Region(ri)
		if r == nil {
			return fail(fmt.Errorf("miodb: WAL region %d missing", ri))
		}
		log := wal.Attach(db.nvm, r)
		_, err := log.Replay(func(key, value []byte, seq uint64, kind keys.Kind) error {
			if mem.mt.Full() {
				fresh, err := db.newMemHandle()
				if err != nil {
					return err
				}
				freshHandles = append(freshHandles, fresh)
				sealed := mem
				db.mu.Lock()
				db.editVersionLocked(func(v *version) {
					v.imms = append([]*memHandle{sealed}, v.imms...)
					v.mem = fresh
				})
				db.mu.Unlock()
				mem = fresh
			}
			if mem.log != nil {
				if err := mem.log.Append(key, value, seq, kind); err != nil {
					return err
				}
			}
			if kind == keys.KindRangeDelete {
				// Range tombstones never enter the skip list: re-log (above)
				// and re-register into the side table and the handle's
				// durability handoff. appendRangeDel deduplicates by seq —
				// the manifest snapshot may already carry this tombstone.
				db.registerRangeTombstone(mem, rangeTombstone{
					start: append([]byte(nil), key...),
					end:   append([]byte(nil), value...),
					seq:   seq,
				})
				if seq > db.seq.Load() {
					db.seq.Store(seq)
				}
				return nil
			}
			if err := mem.mt.Add(key, value, seq, kind); err != nil {
				return err
			}
			if mem.minSeq == 0 {
				mem.minSeq = seq
			}
			if seq > mem.maxSeq {
				mem.maxSeq = seq
			}
			if seq > db.seq.Load() {
				db.seq.Store(seq)
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
	}

	// Resume interrupted merges to completion.
	for _, pm := range pending {
		result := pm.merge.Resume(pm.mark)
		level := pm.level
		m := pm.merge
		db.mu.Lock()
		db.editVersionLocked(func(v *version) {
			lv := v.levels[level]
			for i, e := range lv {
				if me, ok := e.(mergeEntry); ok && me.m == m {
					v.levels[level] = append(lv[:i:i], lv[i+1:]...)
					break
				}
			}
			v.levels[level+1] = append([]levelEntry{tableEntry{result}}, v.levels[level+1]...)
		})
		m.New.DropRegions()
		m.Old.DropRegions()
		db.mu.Unlock()
	}

	// Publish the recovered state by rolling a new generation. Until its
	// pointer store lands, region 0 still names the pre-crash generation
	// and the old WAL regions are still live — a failure here (or a crash
	// during it) leaves the image recoverable by a fresh attempt. A
	// pointer store may reach the media although the device reported the
	// crash, and then the new generation names this attempt's fresh
	// regions: from here on nothing is released on failure, and the next
	// attempt's orphan sweep frees whatever its generation does not name.
	db.mu.Lock()
	err = db.writeManifestLocked()
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Old WAL regions are now redundant (content re-logged).
	for _, ri := range state.walRegions {
		if r := img.Space.Region(ri); r != nil {
			db.nvm.Release(r)
		}
	}

	// Orphan collection: the crashed run may have allocated regions it
	// never published to the manifest — a table flushed just before the
	// crash whose flush-done record didn't land, a half-built merge
	// result, the crashed memtable arenas themselves. None of them are
	// reachable from the recovered state, and on real NVM they would
	// leak forever; release everything the recovered version does not
	// reference (the analogue of LevelDB's stale-file deletion on open).
	db.mu.Lock()
	live, lerr := db.liveRegionsLocked()
	db.mu.Unlock()
	if lerr != nil {
		return nil, lerr
	}
	for _, r := range img.Space.Regions() {
		if !live[r.Index()] {
			img.Space.Release(r)
		}
	}

	db.startBackground()
	return db, nil
}
