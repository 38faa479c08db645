package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"miodb/internal/nvm"
	"miodb/internal/pmtable"
	"miodb/internal/vaddr"
)

// manifestLog is MioDB's superblock: an append-only log of full structural
// snapshots in the *first* NVM region of the store, so recovery can find
// it without any external root. Each record frames one encoded state:
//
//	[ crc32 uint32 | len uint32 | payload ]
//
// The last intact record wins (a torn tail write is ignored). The region
// also hosts the per-level insertion-mark slots that zero-copy merges
// persist through (§4.7); their addresses are carried inside every state
// record.
type manifestLog struct {
	dev *nvm.Device
	reg *vaddr.Region

	// poisoned latches once a failed append left a torn prefix on the
	// media: the last-intact-record scan stops there forever, so any
	// further append could never be recovered. Appending to a poisoned
	// manifest is refused with a persistent error.
	poisoned bool
}

// errManifestPoisoned is deliberately persistent (it never carries the
// transient marker) even when the underlying injected fault was
// transient: a torn record is already on the media, and retrying an
// append behind it would write state recovery can never see.
var errManifestPoisoned = fmt.Errorf("manifest: log poisoned by torn append")

const manifestChunk = 1 << 20

func newManifestLog(dev *nvm.Device) *manifestLog {
	return &manifestLog{dev: dev, reg: dev.NewRegion(manifestChunk)}
}

func attachManifestLog(dev *nvm.Device, reg *vaddr.Region) *manifestLog {
	return &manifestLog{dev: dev, reg: reg}
}

func (m *manifestLog) region() *vaddr.Region { return m.reg }

// allocSlot reserves an 8-byte persisted slot (insertion marks).
func (m *manifestLog) allocSlot() (vaddr.Addr, error) {
	a, err := m.reg.Alloc(8)
	if err != nil {
		return vaddr.NilAddr, err
	}
	m.reg.PutUint64(a, 0)
	return a, nil
}

// append durably adds one state record, gated on the device fault plan.
// An injected torn write persists exactly the torn prefix (recovery
// discards it as a damaged tail) and poisons the log.
func (m *manifestLog) append(payload []byte) error {
	if m.poisoned {
		return errManifestPoisoned
	}
	total := 8 + len(payload)
	if total > m.reg.ChunkSize() {
		return fmt.Errorf("manifest: record of %d bytes exceeds chunk %d", total, m.reg.ChunkSize())
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	copy(buf[8:], payload)
	if out := m.dev.CheckWrite(total); out.Err != nil {
		if out.Torn > 0 {
			torn := out.Torn
			if torn > total {
				torn = total
			}
			if addr, err := m.reg.Alloc(total); err == nil {
				m.reg.Write(addr, buf[:torn])
			}
			m.poisoned = true
			return fmt.Errorf("%w: %v", errManifestPoisoned, out.Err)
		}
		return fmt.Errorf("manifest: append: %w", out.Err)
	}
	addr, err := m.reg.Alloc(total)
	if err != nil {
		return err
	}
	m.reg.Write(addr, buf)
	return nil
}

// scan walks every intact record in order from scanFrom (the offset of
// the first record, past the mark slots), invoking fn with each payload.
// A zero header ends the log unless a later chunk up to the allocation
// edge opens with a record; a CRC mismatch discards the torn tail.
//
// The returned tornAt/torn pair reports how the walk ended: torn=true
// means it stopped at a damaged record (the signature of an append
// interrupted mid-record) starting at offset tornAt, torn=false means a
// clean zero-header EOF. Recovery uses the distinction to repair the
// media (repairTornTail) — records appended behind torn garbage would
// otherwise be invisible to every future scan.
func (m *manifestLog) scan(scanFrom int64, fn func(payload []byte) error) (tornAt int64, torn bool, err error) {
	chunk := int64(m.reg.ChunkSize())
	off := scanFrom
	size := m.reg.Size()
	for {
		if off+8 > size {
			return 0, false, nil
		}
		if off/chunk != (off+8-1)/chunk {
			off = (off + chunk - 1) / chunk * chunk
			continue
		}
		hdr := m.reg.Read(m.reg.Base().Add(off), 8)
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		plen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if crc == 0 && plen == 0 {
			// The rest of this chunk is empty. A repaired tear zeroes a
			// chunk's head and pads the allocation past it, so the log
			// goes on at the first later chunk whose head is not zero.
			next := (off/chunk + 1) * chunk
			for next+8 <= size && binary.LittleEndian.Uint64(m.reg.Read(m.reg.Base().Add(next), 8)) == 0 {
				next += chunk
			}
			if next+8 > size {
				return 0, false, nil
			}
			off = next
			continue
		}
		total := 8 + plen
		if plen <= 0 || off/chunk != (off+total-1)/chunk || off+total > size {
			return off, true, nil
		}
		payload := m.reg.Read(m.reg.Base().Add(off+8), int(plen))
		if crc32.ChecksumIEEE(payload) != crc {
			return off, true, nil
		}
		if err := fn(payload); err != nil {
			return 0, false, err
		}
		off += (total + 7) &^ 7
	}
}

// repairTornTail makes a manifest with a damaged tail appendable again.
// A torn append leaves a partial record on the media; the scan stops
// there forever, so a record appended behind it could never be recovered.
// The repair zeroes everything from the damaged record to the current
// allocation edge (idempotent — a crash mid-repair just leaves a shorter
// damaged tail for the next attempt) and then pads the allocation to the
// next chunk boundary, where the scan's zero-header probe finds the
// continuation however many zeroed chunk heads lie before it.
// Subsequent appends land there and are reachable again.
func (m *manifestLog) repairTornTail(tornAt int64) error {
	size := m.reg.Size()
	if tornAt < size {
		n := size - tornAt
		if out := m.dev.CheckWrite(int(n)); out.Err != nil {
			return fmt.Errorf("manifest: tail repair: %w", out.Err)
		}
		m.reg.Write(m.reg.Base().Add(tornAt), make([]byte, n))
	}
	chunk := int64(m.reg.ChunkSize())
	if rem := m.reg.Size() % chunk; rem != 0 {
		if _, err := m.reg.Alloc(int(chunk - rem)); err != nil {
			return fmt.Errorf("manifest: tail repair: %w", err)
		}
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

	// rangeDels are the live range tombstones, seq-ascending. Encoded at
	// the very end of the snapshot body so a state written before range
	// deletes existed (no trailing bytes) still decodes.
	rangeDels []rangeTombstone

	// Value-log state: installed NVM segments and the next segment id.
	// Encoded as a second trailing section after the tombstones, with the
	// same backward-compatibility rule (absent in older states). SSD
	// segments are not crash-recoverable and never appear here.
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
	// Trailing section: range tombstones (absent in pre-range-delete
	// states — the decoder treats end-of-payload here as empty).
	encodeRangeDels(&e, s.rangeDels)
	// Second trailing section: value-log segments (absent in pre-vlog
	// states — same end-of-payload rule).
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
	if d.err == nil && len(d.b) > 0 {
		s.rangeDels = decodeRangeDels(d)
	}
	if d.err == nil && len(d.b) > 0 {
		s.vlogNext, s.vlogSegs = decodeVlogState(d)
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// Delta records. A full-state snapshot on every structural event would
// write more superblock traffic than user data (and would show up as
// bogus write amplification), so the manifest logs small deltas — rotate,
// flush-done, merge-start/done, lazy-done, repo-swap — with a fresh full
// snapshot every snapshotEvery records to bound recovery replay.
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

// appendManifestLocked appends one delta record (or a rolling snapshot),
// retrying transient device errors. A persistent failure latches the
// store degraded and is returned: the caller must not queue the release
// of any resource the failed record would have retired — the last
// recoverable manifest state still references it.
func (db *DB) appendManifestLocked(kind uint8, body func(e *encoder)) error {
	db.manifestEdits++
	if kind != recSnapshot && db.manifestEdits >= snapshotEvery {
		// Roll a snapshot instead of the delta when it fits. Under an
		// extreme table backlog a full snapshot can exceed the record
		// cap — then we must keep appending deltas (replay just walks a
		// longer chain) and retry the snapshot later.
		ok, err := db.trySnapshotLocked()
		if err != nil {
			db.degradeLocked("manifest snapshot", err)
			return err
		}
		if ok {
			return nil
		}
		db.manifestEdits = 0 // retry after another snapshotEvery edits
	}
	var e encoder
	e.u8(kind)
	body(&e)
	if err := db.runDeviceOp(func() error { return db.manifest.append(e.buf.Bytes()) }); err != nil {
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
// manifest owns them (trailing section, so pre-range-delete records
// decode unchanged).
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

// logVlogSegment records a freshly created NVM value-log segment before
// any pointer naming it can reach the WAL. It is the vlog.Store's
// OnNewSegment callback: invoked from vlog.Append under commitMu but
// outside both the vlog's own mutex and db.mu (lock order
// commitMu → mu). SSD segments (name != "") are not crash-recoverable
// and are not logged.
func (db *DB) logVlogSegment(id uint32, regionIdx uint32, name string) error {
	if name != "" {
		return nil
	}
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
		var dels []rangeTombstone
		if d.err == nil && len(d.b) > 0 {
			dels = decodeRangeDels(d)
		}
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

// replayManifest reads all records from scanFrom, folding deltas into the
// most recent snapshot, and returns the reconstructed state plus the
// scan's torn-tail report (tornAt/torn; see scan).
func (m *manifestLog) replayManifest(scanFrom int64) (*manifestState, int64, bool, error) {
	var state *manifestState
	tornAt, torn, err := m.scan(scanFrom, func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("manifest: empty record")
		}
		kind, body := payload[0], payload[1:]
		if kind == recSnapshot {
			s, err := decodeManifestState(body)
			if err != nil {
				return err
			}
			state = s
			return nil
		}
		if state == nil {
			return fmt.Errorf("manifest: delta record before any snapshot")
		}
		return state.applyDelta(kind, &decoder{b: body})
	})
	if err != nil {
		return nil, 0, false, err
	}
	if state == nil {
		return nil, 0, false, fmt.Errorf("manifest: no intact snapshot record")
	}
	return state, tornAt, torn, nil
}

// writeManifestLocked snapshots the current structure into the
// superblock. It fails if the snapshot cannot be written — a device
// fault, or a snapshot exceeding the record capacity (only possible
// with an absurd table backlog; the delta path handles that case
// instead). Callers hold db.mu.
func (db *DB) writeManifestLocked() error {
	ok, err := db.trySnapshotLocked()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("miodb: manifest snapshot exceeds record capacity")
	}
	return nil
}

// trySnapshotLocked writes a full-state snapshot record if it fits,
// reporting success. SSD-mode table state lives in the lsm tree and is
// not covered by crash recovery (see Recover).
func (db *DB) trySnapshotLocked() (bool, error) {
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
	if len(payload)+8 > db.manifest.region().ChunkSize() {
		return false, nil
	}
	if err := db.runDeviceOp(func() error { return db.manifest.append(payload) }); err != nil {
		return false, err
	}
	db.manifestEdits = 0
	return true, nil
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
