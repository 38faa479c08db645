package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"miodb/internal/nvm"
	"miodb/internal/pmtable"
	"miodb/internal/vaddr"
)

// manifestLog is MioDB's superblock. Region 0, the first region of the
// space, is a fixed header recovery finds without any external root:
//
//	[ nil word | generation pointer | insertion-mark slot per level ]
//
// The mark slots are the 8-byte words zero-copy merges persist through
// (§4.7); their addresses are carried inside every snapshot. The pointer
// holds the base address of the current generation: one NVM region of
// exactly one chunk whose first record is a full snapshot, followed by at
// most snapshotEvery-1 deltas. Each record frames one payload:
//
//	[ crc32 uint32 | len uint32 | payload ]
//
// A roll writes the next snapshot into a fresh generation, swings the
// pointer with one 8-byte store and releases the old generation, so
// nothing is ever appended behind a torn record: a torn tail just ends
// the replay, and the recovery that finds it rolls past it.
type manifestLog struct {
	dev   *nvm.Device
	super *vaddr.Region // region 0
	gen   *vaddr.Region // current generation

	// poisoned latches once a failed write left a torn prefix on the
	// media: replay stops at it, so an append behind it could never be
	// recovered. Every further append or roll is refused with a persistent
	// error; the store is degraded anyway.
	poisoned bool
}

// errManifestPoisoned is deliberately persistent (it never carries the
// transient marker) even when the underlying injected fault was
// transient: a torn record is already on the media, and retrying an
// append behind it would write state recovery can never see.
var errManifestPoisoned = fmt.Errorf("manifest: log poisoned by torn write")

// errNoGeneration refuses a superblock whose pointer does not name a
// present region opening with an intact snapshot: a zeroed pointer, or a
// checkpoint image written before the superblock held one.
var errNoGeneration = errors.New("manifest: superblock names no generation")

const (
	genPtrOff   = 8        // the generation pointer's offset in region 0
	genMinChunk = 16 << 10 // floor of a generation's one chunk
	// formatChunk floors the chunk of the empty generation formatSuperblock
	// rolls: the stride floor, since bringUp's publishing roll supersedes
	// that generation before any delta is appended to it.
	formatChunk = 4 << 10
)

// formatSuperblock lays down region 0 of a fresh space — after the nil
// word the space reserves, the generation pointer and one zeroed mark
// slot per level — and rolls the first generation: an empty snapshot of
// levels empty levels, with no repository and no WAL regions. Open comes
// up from it through Recover's path, as from any crash image.
func formatSuperblock(dev *nvm.Device, levels int) error {
	// A 4 KiB stride, backed by just these words.
	m := &manifestLog{dev: dev, super: dev.NewRegion(genPtrOff + 8 + 8*levels)}
	if _, err := m.super.Alloc(8); err != nil { // the generation pointer
		return err
	}
	empty := &manifestState{levels: make([][]entryState, levels)}
	for range levels {
		slot, err := m.super.Alloc(8)
		if err != nil {
			return err
		}
		m.super.PutUint64(slot, 0)
		empty.markSlots = append(empty.markSlots, uint64(slot))
	}
	return m.roll(append([]byte{recSnapshot}, empty.encode()...), formatChunk)
}

// attachManifestLog opens the generation region 0 points at.
func attachManifestLog(dev *nvm.Device, super *vaddr.Region) (*manifestLog, error) {
	if super == nil || super.Size() < genPtrOff+8 {
		return nil, errNoGeneration
	}
	ptr := vaddr.Addr(super.Load64(super.Base().Add(genPtrOff)))
	gen := super.Space().RegionOf(ptr)
	if gen == nil || ptr != gen.Base() {
		return nil, errNoGeneration
	}
	return &manifestLog{dev: dev, super: super, gen: gen}, nil
}

// fits reports whether a record of n payload bytes fits in what remains
// of the generation's one chunk.
func (m *manifestLog) fits(n int) bool {
	return m.gen.Size()+int64(8+n) <= int64(m.gen.ChunkSize())
}

// write durably places one record at the end of reg, gated on the device
// fault plan. An injected torn write persists exactly the torn prefix
// (replay ends at it) and poisons the log.
func (m *manifestLog) write(reg *vaddr.Region, payload []byte) error {
	if m.poisoned {
		return errManifestPoisoned
	}
	total := 8 + len(payload)
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	copy(buf[8:], payload)
	out := m.dev.CheckWrite(total)
	if out.Err != nil && out.Torn <= 0 {
		return fmt.Errorf("manifest: write: %w", out.Err)
	}
	addr, err := reg.Alloc(total)
	if err != nil {
		return err
	}
	if out.Err != nil {
		reg.Write(addr, buf[:min(out.Torn, total)])
		m.poisoned = true
		return fmt.Errorf("%w: %v", errManifestPoisoned, out.Err)
	}
	reg.Write(addr, buf)
	return nil
}

// roll opens a new generation with snapshot as its first record, its one
// chunk the next power of two of at least minChunk and four times the
// snapshot so the deltas after it fit, points region 0 at it and releases
// the old one.
// Until the pointer store lands nothing durable names the new region, so
// a failure before it releases the new region; a pointer store that
// reached the media although the device reported a crash still
// publishes.
func (m *manifestLog) roll(snapshot []byte, minChunk int) error {
	chunk := minChunk
	for chunk < 4*(8+len(snapshot)) {
		chunk <<= 1
	}
	gen := m.dev.NewRegion(chunk)
	if err := m.write(gen, snapshot); err != nil {
		m.dev.Release(gen)
		return err
	}
	out := m.dev.CheckWrite(8)
	if out.Err != nil && out.Torn < 8 {
		m.dev.Release(gen)
	} else {
		m.super.Store64(m.super.Base().Add(genPtrOff), uint64(gen.Base()))
		if m.gen != nil {
			m.dev.Release(m.gen)
		}
		m.gen = gen
	}
	if out.Err != nil {
		return fmt.Errorf("manifest: generation pointer: %w", out.Err)
	}
	return nil
}

// scan walks the generation's intact records in order, invoking fn with
// each payload. A zero header, a record running past the allocation edge
// or a CRC mismatch ends the walk: that is the tail a crashed append
// leaves, and no record ever follows it.
func (m *manifestLog) scan(fn func(payload []byte) error) error {
	size := min(m.gen.Size(), int64(m.gen.ChunkSize()))
	for off := int64(0); off+8 <= size; {
		hdr := m.gen.Read(m.gen.Base().Add(off), 8)
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		total := 8 + int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if total == 8 || off+total > size {
			return nil
		}
		payload := m.gen.Read(m.gen.Base().Add(off+8), int(total-8))
		if crc32.ChecksumIEEE(payload) != crc {
			return nil
		}
		if err := fn(payload); err != nil {
			return err
		}
		off += (total + 7) &^ 7
	}
	return nil
}

// manifest state encoding. All integers little-endian, fixed width.

type encoder struct{ buf bytes.Buffer }

func (e *encoder) u8(v uint8) { e.buf.WriteByte(v) }
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.buf.Write(v)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.err = fmt.Errorf("manifest: truncated state")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = fmt.Errorf("manifest: truncated state")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}
func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = fmt.Errorf("manifest: truncated state")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.b) < n {
		d.err = fmt.Errorf("manifest: truncated state")
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

// tableState is the persisted identity of one PMTable.
type tableState struct {
	id             uint64
	head           uint64
	minSeq, maxSeq uint64
	regions        []uint32
}

type mergeState struct {
	newT, oldT tableState
	markSlot   uint64
}

type entryState struct {
	isMerge bool
	table   tableState // when !isMerge
	merge   mergeState // when isMerge
}

type manifestState struct {
	lastSeq     uint64
	nextTableID uint64
	markSlots   []uint64
	walRegions  []uint32 // oldest-first; last is the active log
	hasRepo     bool
	repoRegion  uint32
	repoHead    uint64
	levels      [][]entryState

	// rangeDels are the live range tombstones, seq-ascending.
	rangeDels []rangeTombstone

	// Value-log state: installed NVM segments and the next segment id.
	// SSD segments are not crash-recoverable and never appear here.
	vlogSegs []vlogSegState
	vlogNext uint32
}

// vlogSegState is the persisted identity of one NVM value-log segment.
type vlogSegState struct {
	id     uint32
	region uint32
}

func encodeVlogState(e *encoder, next uint32, segs []vlogSegState) {
	e.u32(next)
	e.u32(uint32(len(segs)))
	for _, g := range segs {
		e.u32(g.id)
		e.u32(g.region)
	}
}

func decodeVlogState(d *decoder) (next uint32, segs []vlogSegState) {
	next = d.u32()
	n := d.u32()
	if d.err == nil && n > 1<<24 {
		d.err = fmt.Errorf("manifest: absurd vlog segment count %d", n)
		return 0, nil
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		var g vlogSegState
		g.id = d.u32()
		g.region = d.u32()
		if d.err == nil {
			segs = append(segs, g)
		}
	}
	return next, segs
}

// encodeRangeDels appends a tombstone section: count, then per tombstone
// the commit seq and the [start, end) bounds.
func encodeRangeDels(e *encoder, dels []rangeTombstone) {
	e.u32(uint32(len(dels)))
	for _, t := range dels {
		e.u64(t.seq)
		e.bytes(t.start)
		e.bytes(t.end)
	}
}

func decodeRangeDels(d *decoder) []rangeTombstone {
	n := d.u32()
	if d.err == nil && n > 1<<24 {
		d.err = fmt.Errorf("manifest: absurd tombstone count %d", n)
		return nil
	}
	var dels []rangeTombstone
	for i := uint32(0); i < n && d.err == nil; i++ {
		var t rangeTombstone
		t.seq = d.u64()
		t.start = d.bytes()
		t.end = d.bytes()
		if d.err == nil {
			dels = append(dels, t)
		}
	}
	return dels
}

const (
	entryKindTable = 0
	entryKindMerge = 1
)

func encodeTable(e *encoder, t tableState) {
	e.u64(t.id)
	e.u64(t.head)
	e.u64(t.minSeq)
	e.u64(t.maxSeq)
	e.u32(uint32(len(t.regions)))
	for _, r := range t.regions {
		e.u32(r)
	}
}

func decodeTable(d *decoder) tableState {
	var t tableState
	t.id = d.u64()
	t.head = d.u64()
	t.minSeq = d.u64()
	t.maxSeq = d.u64()
	n := d.u32()
	if d.err == nil && n > 1<<20 {
		d.err = fmt.Errorf("manifest: absurd region count %d", n)
		return t
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		t.regions = append(t.regions, d.u32())
	}
	return t
}

func (s *manifestState) encode() []byte {
	var e encoder
	e.u64(s.lastSeq)
	e.u64(s.nextTableID)
	e.u32(uint32(len(s.markSlots)))
	for _, m := range s.markSlots {
		e.u64(m)
	}
	e.u32(uint32(len(s.walRegions)))
	for _, w := range s.walRegions {
		e.u32(w)
	}
	if s.hasRepo {
		e.u8(1)
		e.u32(s.repoRegion)
		e.u64(s.repoHead)
	} else {
		e.u8(0)
	}
	e.u32(uint32(len(s.levels)))
	for _, lvl := range s.levels {
		e.u32(uint32(len(lvl)))
		for _, ent := range lvl {
			if ent.isMerge {
				e.u8(entryKindMerge)
				encodeTable(&e, ent.merge.newT)
				encodeTable(&e, ent.merge.oldT)
				e.u64(ent.merge.markSlot)
			} else {
				e.u8(entryKindTable)
				encodeTable(&e, ent.table)
			}
		}
	}
	encodeRangeDels(&e, s.rangeDels)
	encodeVlogState(&e, s.vlogNext, s.vlogSegs)
	return e.buf.Bytes()
}

func decodeManifestState(payload []byte) (*manifestState, error) {
	d := &decoder{b: payload}
	s := &manifestState{}
	s.lastSeq = d.u64()
	s.nextTableID = d.u64()
	nMarks := d.u32()
	for i := uint32(0); i < nMarks && d.err == nil; i++ {
		s.markSlots = append(s.markSlots, d.u64())
	}
	nWals := d.u32()
	for i := uint32(0); i < nWals && d.err == nil; i++ {
		s.walRegions = append(s.walRegions, d.u32())
	}
	if d.u8() == 1 {
		s.hasRepo = true
		s.repoRegion = d.u32()
		s.repoHead = d.u64()
	}
	nLevels := d.u32()
	if d.err == nil && nLevels > 1<<10 {
		return nil, fmt.Errorf("manifest: absurd level count %d", nLevels)
	}
	for i := uint32(0); i < nLevels && d.err == nil; i++ {
		nEnt := d.u32()
		lvl := []entryState{}
		for j := uint32(0); j < nEnt && d.err == nil; j++ {
			switch d.u8() {
			case entryKindTable:
				lvl = append(lvl, entryState{table: decodeTable(d)})
			case entryKindMerge:
				var ms mergeState
				ms.newT = decodeTable(d)
				ms.oldT = decodeTable(d)
				ms.markSlot = d.u64()
				lvl = append(lvl, entryState{isMerge: true, merge: ms})
			default:
				if d.err == nil {
					d.err = fmt.Errorf("manifest: unknown entry kind")
				}
			}
		}
		s.levels = append(s.levels, lvl)
	}
	s.rangeDels = decodeRangeDels(d)
	s.vlogNext, s.vlogSegs = decodeVlogState(d)
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// Delta records. A full-state snapshot on every structural event would
// write more superblock traffic than user data (and would show up as
// bogus write amplification), so the manifest logs small deltas — rotate,
// flush-done, merge-start/done, lazy-done, repo-swap — and rolls a new
// generation opening with a full snapshot every snapshotEvery edits,
// which bounds recovery replay to one snapshot and snapshotEvery-1
// deltas.
const (
	recSnapshot   = 0
	recRotate     = 1
	recFlushDone  = 2
	recMergeStart = 3
	recMergeDone  = 4
	recLazyDone   = 5
	recRepoSwap   = 6
	recRangeDrop  = 7
	recVlogSeg    = 8
	recVlogFree   = 9

	snapshotEvery = 64
)

// appendManifestLocked appends one delta record, or rolls a new
// generation in its place once the generation holds snapshotEvery-1
// deltas or the record does not fit in what remains of its chunk,
// retrying transient device errors. A persistent failure latches the
// store degraded and is returned: the caller must not queue the release
// of any resource the failed record would have retired — the last
// recoverable manifest state still references it.
func (db *DB) appendManifestLocked(kind uint8, body func(e *encoder)) error {
	var e encoder
	e.u8(kind)
	body(&e)
	db.manifestEdits++
	if db.manifestEdits >= snapshotEvery || !db.manifest.fits(e.buf.Len()) {
		if err := db.writeManifestLocked(); err != nil {
			db.degradeLocked("manifest snapshot", err)
			return err
		}
		return nil
	}
	if err := db.runDeviceOp(func() error { return db.manifest.write(db.manifest.gen, e.buf.Bytes()) }); err != nil {
		db.degradeLocked("manifest append", err)
		return err
	}
	return nil
}

// logRotateLocked records a memtable rotation (new active WAL region).
func (db *DB) logRotateLocked(h *memHandle) error {
	if h.log == nil {
		return nil // nothing recoverable changed
	}
	return db.appendManifestLocked(recRotate, func(e *encoder) {
		e.u32(h.log.Region().Index())
		e.u64(db.seq.Load())
	})
}

// logFlushDoneLocked records a completed one-piece flush: the new L0
// table and the retirement of its WAL region. rangeDels are the range
// tombstones whose durability the retired WAL carried — from here on the
// manifest owns them.
func (db *DB) logFlushDoneLocked(ts tableState, walRegion uint32, hadWal bool, rangeDels []rangeTombstone) error {
	return db.appendManifestLocked(recFlushDone, func(e *encoder) {
		if hadWal {
			e.u8(1)
			e.u32(walRegion)
		} else {
			e.u8(0)
		}
		encodeTable(e, ts)
		encodeRangeDels(e, rangeDels)
	})
}

// logRangeDropLocked records that the range tombstone committed at seq has
// been fully applied and is no longer needed for correctness (tombstone
// garbage collection; see compactRepo).
func (db *DB) logRangeDropLocked(seq uint64) error {
	return db.appendManifestLocked(recRangeDrop, func(e *encoder) {
		e.u64(seq)
	})
}

// logVlogSegment records a freshly created value-log segment before any
// pointer naming it can reach the WAL. It is the vlog.Store's
// OnNewSegment callback: invoked from vlog.Append under commitMu but
// outside both the vlog's own mutex and db.mu (lock order
// commitMu → mu).
func (db *DB) logVlogSegment(id uint32, regionIdx uint32) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.appendManifestLocked(recVlogSeg, func(e *encoder) {
		e.u32(id)
		e.u32(regionIdx)
	})
}

// logVlogFreeLocked records that a value-log segment has been fully
// relocated and reclaimed. Callers hold db.mu. Replay order guarantees
// safety: every relocation's WAL pointer record precedes this record, so
// the recovered LSM never holds a live pointer into the freed segment.
func (db *DB) logVlogFreeLocked(id uint32) error {
	return db.appendManifestLocked(recVlogFree, func(e *encoder) {
		e.u32(id)
	})
}

// logMergeStartLocked records the pairing of the two oldest tables of a
// level for zero-copy compaction.
func (db *DB) logMergeStartLocked(level int, newID, oldID uint64) error {
	return db.appendManifestLocked(recMergeStart, func(e *encoder) {
		e.u32(uint32(level))
		e.u64(newID)
		e.u64(oldID)
	})
}

// logMergeDoneLocked records a completed merge and its result table.
func (db *DB) logMergeDoneLocked(level int, newID, oldID uint64, result tableState) error {
	return db.appendManifestLocked(recMergeDone, func(e *encoder) {
		e.u32(uint32(level))
		e.u64(newID)
		e.u64(oldID)
		encodeTable(e, result)
	})
}

// logLazyDoneLocked records a table absorbed into the repository.
func (db *DB) logLazyDoneLocked(level int, tableID uint64) error {
	return db.appendManifestLocked(recLazyDone, func(e *encoder) {
		e.u32(uint32(level))
		e.u64(tableID)
	})
}

// logRepoSwapLocked records a repository garbage compaction.
func (db *DB) logRepoSwapLocked(region uint32, head uint64) error {
	return db.appendManifestLocked(recRepoSwap, func(e *encoder) {
		e.u32(region)
		e.u64(head)
	})
}

// applyDelta folds one delta record into a replayed state. It mirrors the
// engine's own transitions exactly.
func (s *manifestState) applyDelta(kind uint8, d *decoder) error {
	switch kind {
	case recRotate:
		s.walRegions = append(s.walRegions, d.u32())
		if seq := d.u64(); seq > s.lastSeq {
			s.lastSeq = seq
		}
	case recFlushDone:
		hadWal := d.u8() == 1
		var wr uint32
		if hadWal {
			wr = d.u32()
		}
		ts := decodeTable(d)
		dels := decodeRangeDels(d)
		if d.err != nil {
			return d.err
		}
		for _, t := range dels {
			s.rangeDels = appendRangeDel(s.rangeDels, t)
		}
		if hadWal {
			for i, w := range s.walRegions {
				if w == wr {
					s.walRegions = append(s.walRegions[:i], s.walRegions[i+1:]...)
					break
				}
			}
		}
		if len(s.levels) == 0 {
			return fmt.Errorf("manifest: flush delta before snapshot")
		}
		s.levels[0] = append([]entryState{{table: ts}}, s.levels[0]...)
		if ts.id >= s.nextTableID {
			s.nextTableID = ts.id + 1
		}
		if ts.maxSeq > s.lastSeq {
			s.lastSeq = ts.maxSeq
		}
	case recMergeStart:
		level := int(d.u32())
		newID, oldID := d.u64(), d.u64()
		if d.err != nil {
			return d.err
		}
		if level >= len(s.levels) {
			return fmt.Errorf("manifest: merge delta for level %d", level)
		}
		lv := s.levels[level]
		var newT, oldT *entryState
		rest := lv[:0:0]
		for i := range lv {
			switch {
			case !lv[i].isMerge && lv[i].table.id == newID:
				newT = &lv[i]
			case !lv[i].isMerge && lv[i].table.id == oldID:
				oldT = &lv[i]
			default:
				rest = append(rest, lv[i])
			}
		}
		if newT == nil || oldT == nil {
			return fmt.Errorf("manifest: merge pair %d/%d not found in level %d", newID, oldID, level)
		}
		rest = append(rest, entryState{
			isMerge: true,
			merge: mergeState{
				newT:     newT.table,
				oldT:     oldT.table,
				markSlot: s.markSlots[level],
			},
		})
		s.levels[level] = rest
	case recMergeDone:
		level := int(d.u32())
		newID, oldID := d.u64(), d.u64()
		result := decodeTable(d)
		if d.err != nil {
			return d.err
		}
		if level+1 >= len(s.levels) {
			return fmt.Errorf("manifest: merge-done delta for level %d", level)
		}
		lv := s.levels[level]
		rest := lv[:0:0]
		for i := range lv {
			if lv[i].isMerge && lv[i].merge.newT.id == newID && lv[i].merge.oldT.id == oldID {
				continue
			}
			rest = append(rest, lv[i])
		}
		s.levels[level] = rest
		s.levels[level+1] = append([]entryState{{table: result}}, s.levels[level+1]...)
	case recLazyDone:
		level := int(d.u32())
		id := d.u64()
		if d.err != nil {
			return d.err
		}
		if level >= len(s.levels) {
			return fmt.Errorf("manifest: lazy delta for level %d", level)
		}
		lv := s.levels[level]
		rest := lv[:0:0]
		for i := range lv {
			if !lv[i].isMerge && lv[i].table.id == id {
				continue
			}
			rest = append(rest, lv[i])
		}
		s.levels[level] = rest
	case recRepoSwap:
		s.hasRepo = true
		s.repoRegion = d.u32()
		s.repoHead = d.u64()
	case recRangeDrop:
		seq := d.u64()
		if d.err != nil {
			return d.err
		}
		s.rangeDels = dropRangeDel(s.rangeDels, seq)
	case recVlogSeg:
		id, region := d.u32(), d.u32()
		if d.err != nil {
			return d.err
		}
		// Dedupe: a snapshot rolled between the segment's install and this
		// delta can already carry it.
		dup := false
		for _, g := range s.vlogSegs {
			if g.id == id {
				dup = true
				break
			}
		}
		if !dup {
			s.vlogSegs = append(s.vlogSegs, vlogSegState{id: id, region: region})
		}
		if id >= s.vlogNext {
			s.vlogNext = id + 1
		}
	case recVlogFree:
		id := d.u32()
		if d.err != nil {
			return d.err
		}
		rest := s.vlogSegs[:0:0]
		for _, g := range s.vlogSegs {
			if g.id != id {
				rest = append(rest, g)
			}
		}
		s.vlogSegs = rest
	default:
		return fmt.Errorf("manifest: unknown record kind %d", kind)
	}
	return d.err
}

// replay folds the current generation's deltas into the snapshot that
// opens it. A generation that does not open with an intact snapshot is
// refused with errNoGeneration.
func (m *manifestLog) replay() (*manifestState, error) {
	var state *manifestState
	err := m.scan(func(payload []byte) error {
		kind, body := payload[0], payload[1:]
		if state == nil {
			if kind != recSnapshot {
				return errNoGeneration
			}
			s, err := decodeManifestState(body)
			state = s
			return err
		}
		return state.applyDelta(kind, &decoder{b: body})
	})
	if err == nil && state == nil {
		err = errNoGeneration
	}
	return state, err
}

// writeManifestLocked rolls a new generation opening with a snapshot of
// the current structure. SSD-mode table state lives in the lsm tree and
// is not covered by crash recovery (see Recover). Callers hold db.mu.
func (db *DB) writeManifestLocked() error {
	s := &manifestState{
		lastSeq:     db.seq.Load(),
		nextTableID: db.tableID.Load(),
	}
	for _, slot := range db.markSlots {
		s.markSlots = append(s.markSlots, uint64(slot))
	}
	v := db.current.Load()
	// WAL regions oldest-first, active log last.
	for i := len(v.imms) - 1; i >= 0; i-- {
		if v.imms[i].log != nil {
			s.walRegions = append(s.walRegions, v.imms[i].log.Region().Index())
		}
	}
	if v.mem.log != nil {
		s.walRegions = append(s.walRegions, v.mem.log.Region().Index())
	}
	if db.repo != nil {
		s.hasRepo = true
		s.repoRegion = db.repo.Region().Index()
		s.repoHead = uint64(db.repo.Head())
	}
	for level, entries := range v.levels {
		lvl := make([]entryState, 0, len(entries))
		for _, e := range entries {
			switch ent := e.(type) {
			case tableEntry:
				lvl = append(lvl, entryState{table: tableToState(ent.t)})
			case mergeEntry:
				lvl = append(lvl, entryState{
					isMerge: true,
					merge: mergeState{
						newT:     tableToState(ent.m.New),
						oldT:     tableToState(ent.m.Old),
						markSlot: uint64(db.markSlots[level]),
					},
				})
			}
		}
		s.levels = append(s.levels, lvl)
	}
	s.rangeDels = v.rangeDels
	if db.vlog != nil {
		next, refs := db.vlog.SnapshotState()
		s.vlogNext = next
		for _, r := range refs {
			s.vlogSegs = append(s.vlogSegs, vlogSegState{id: r.ID, region: r.Region})
		}
	}
	payload := append([]byte{recSnapshot}, s.encode()...)
	if err := db.runDeviceOp(func() error { return db.manifest.roll(payload, genMinChunk) }); err != nil {
		return err
	}
	db.manifestEdits = 0
	return nil
}

func tableToState(t *pmtable.Table) tableState {
	ts := tableState{
		id:     t.ID,
		head:   uint64(t.List().Head()),
		minSeq: t.MinSeq,
		maxSeq: t.MaxSeq,
	}
	for _, r := range t.Regions() {
		ts.regions = append(ts.regions, r.Index())
	}
	return ts
}
