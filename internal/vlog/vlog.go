// Package vlog implements the value log behind MioDB's key-value
// separation (DESIGN.md §14). Values at or above a configurable threshold
// are appended to segmented logs in NVM arenas, beside the rest of the
// paper's NVM-resident data, and the LSM structure stores a compact
// 16-byte address in their place. Compaction then moves pointers,
// not value bytes: the write-amplification win WiscKey-style separation
// is known for, applied to the paper's NVM-resident design.
//
// A segment is append-only and immutable once sealed. Liveness is tracked
// per segment as a set of dead entry offsets (fed by the engine's
// compaction drop hooks and by GC relocation itself); reclamation is a
// walk over the keys of a sealed candidate segment that re-commits
// still-live values through the normal write path and then frees the
// segment. The engine defers the actual free onto its epoch/version
// machinery so that no pinned snapshot or in-flight reader can observe a
// reclaimed address — see core's value-log GC for the safety argument.
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"miodb/internal/kvstore"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// ErrCorrupt reports a value-log entry that failed validation: an unknown
// segment, an out-of-bounds address, or a checksum mismatch. Reaching it
// from a live read means the pointer and the log disagree — an invariant
// violation, not an expected runtime condition. The sentinel lives in
// kvstore (as ErrValueLogCorrupt) so every layer shares one identity.
var ErrCorrupt = kvstore.ErrValueLogCorrupt

// Addr locates one entry inside the value log: segment id, byte offset of
// the entry header within the segment, and the total entry length
// (header + key + value).
type Addr struct {
	Seg uint32
	Off int64
	Len uint32
}

// AddrSize is the encoded size of an Addr — the bytes a pointer entry
// occupies in place of its value throughout the LSM structure.
const AddrSize = 16

// Encode appends the 16-byte encoding of a to dst.
func (a Addr) Encode(dst []byte) []byte {
	var b [AddrSize]byte
	binary.LittleEndian.PutUint32(b[0:4], a.Seg)
	binary.LittleEndian.PutUint64(b[4:12], uint64(a.Off))
	binary.LittleEndian.PutUint32(b[12:16], a.Len)
	return append(dst, b[:]...)
}

// DecodeAddr parses a pointer produced by Encode.
func DecodeAddr(b []byte) (Addr, bool) {
	if len(b) != AddrSize {
		return Addr{}, false
	}
	return Addr{
		Seg: binary.LittleEndian.Uint32(b[0:4]),
		Off: int64(binary.LittleEndian.Uint64(b[4:12])),
		Len: binary.LittleEndian.Uint32(b[12:16]),
	}, true
}

// Entry layout inside a segment:
//
//	[ crc32 u32 | keyLen u32 | valLen u32 | seq u64 | key | value ]
//
// The checksum covers everything after itself. The key rides along so
// that GC can decide liveness (and recovery scans can rebuild segment
// extents) from the log alone.
const entryHeaderSize = 20

func alignUp(n int64) int64 { return (n + 7) &^ 7 }

// Config sizes a Store.
type Config struct {
	// SegmentSize is the soft capacity of one segment; an oversized entry
	// gets a dedicated segment of its own.
	SegmentSize int
	// GCDeadRatio is the dead-byte fraction at which a sealed segment
	// becomes a reclamation candidate.
	GCDeadRatio float64
}

// segment is one append-only log extent: an NVM arena region. size and
// live are atomics because readers and the dead-byte accounting hooks run
// without the store mutex.
type segment struct {
	id     uint32
	region *vaddr.Region
	cap    int64
	size   atomic.Int64
	live   atomic.Int64
	sealed atomic.Bool // GC candidate scans read it without the store mutex

	// condemned latches once a reclaimer has claimed the segment: its free
	// is queued (epoch-deferred), so PickGC must stop offering it — the
	// segment stays installed and readable until the free actually runs.
	condemned atomic.Bool

	// dead holds one bit per 8-byte slot of the segment, set when the entry
	// starting there has been marked dead. It makes MarkDead idempotent, so
	// live is an exact count however often one address is reported.
	dead []atomic.Uint64
	// trusted says a set bit proves the entry dead, so Walk may skip it
	// unseen. True only for segments this incarnation created: every
	// pointer into one was committed exactly once, so a drop report means
	// the last reference is gone. A recovered segment's pointers may be
	// held twice (a WAL-replayed record beside the flushed copy, a re-run
	// absorb beside the repository's), and the merge that drops one copy
	// reports an address the other still names (DESIGN.md §14) — Attach
	// leaves it false.
	trusted bool
}

// newDeadSet sizes a dead set for entry offsets below cap.
func newDeadSet(cap int64) []atomic.Uint64 {
	return make([]atomic.Uint64, cap>>9+1)
}

// deadBit locates the dead-set bit of the entry at off.
func (g *segment) deadBit(off int64) (*atomic.Uint64, uint64) {
	return &g.dead[off>>9], 1 << (uint(off>>3) & 63)
}

// markDead sets the bit of the entry at off and reports whether this call
// set it.
func (g *segment) markDead(off int64) bool {
	if off < 0 || off&7 != 0 || off >= g.size.Load() {
		return false
	}
	w, bit := g.deadBit(off)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

func (g *segment) markedDead(off int64) bool {
	w, bit := g.deadBit(off)
	return w.Load()&bit != 0
}

func (g *segment) deadRatio() float64 {
	size := g.size.Load()
	if size <= 0 {
		return 1 // an empty sealed segment is pure overhead
	}
	return float64(size-g.live.Load()) / float64(size)
}

// Counters is a snapshot of value-log accounting (feeds stats.Snapshot).
type Counters struct {
	Segments            int64
	SegmentBytes        int64
	LiveBytes           int64
	Appends             int64
	AppendedBytes       int64
	GCRelocations       int64
	GCRelocatedBytes    int64
	GCSegmentsReclaimed int64
	GCReclaimedBytes    int64
}

// DeadRatio is the dead-space fraction across all segment bytes.
func (c Counters) DeadRatio() float64 {
	if c.SegmentBytes <= 0 {
		return 0
	}
	return float64(c.SegmentBytes-c.LiveBytes) / float64(c.SegmentBytes)
}

// Store is a segmented value log. Appends are serialized by the caller
// (they run under the engine's commit lock); reads are lock-free against
// a copy-on-write segment map, mirroring how vaddr resolves regions.
type Store struct {
	dev *nvm.Device
	cfg Config

	// OnNewSegment, when non-nil, is invoked synchronously right after a
	// fresh segment is installed, before any entry lands in it. The engine
	// logs a manifest record here so recovery re-attaches the segment
	// before WAL replay commits pointers into it. It runs WITHOUT the
	// store mutex held (the callback takes engine locks that themselves
	// order before this store's mutex); an error uninstalls the segment
	// and aborts the append.
	OnNewSegment func(id uint32, regionIndex uint32) error

	mu     sync.Mutex
	segs   atomic.Pointer[map[uint32]*segment]
	nextID uint32
	// active is the segment appends land in. Only the serialized appender
	// installs one (newSegment); sealers and Free reach it without s.mu.
	active atomic.Pointer[segment]

	appends, appendedBytes        atomic.Int64
	relocations, relocatedBytes   atomic.Int64
	reclaimedSegs, reclaimedBytes atomic.Int64
}

// NewNVM creates a value log over byte-addressable NVM arenas.
func NewNVM(dev *nvm.Device, cfg Config) *Store {
	s := &Store{dev: dev, cfg: cfg}
	empty := map[uint32]*segment{}
	s.segs.Store(&empty)
	return s
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

func (s *Store) lookup(id uint32) *segment {
	return (*s.segs.Load())[id]
}

// installLocked publishes the segment map with g added. Caller holds s.mu.
func (s *Store) installLocked(g *segment) {
	cur := *s.segs.Load()
	next := make(map[uint32]*segment, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[g.id] = g
	s.segs.Store(&next)
}

// removeLocked unpublishes the segment with the given id. Caller holds s.mu.
func (s *Store) removeLocked(id uint32) *segment {
	cur := *s.segs.Load()
	g := cur[id]
	if g == nil {
		return nil
	}
	next := make(map[uint32]*segment, len(cur))
	for k, v := range cur {
		if k != id {
			next[k] = v
		}
	}
	s.segs.Store(&next)
	return g
}

// newSegment creates, installs, and announces a fresh segment whose
// capacity is at least minCap bytes. Install happens before the
// OnNewSegment announcement so a concurrently rolled manifest snapshot
// can never miss the segment. On announcement failure the (still empty)
// segment is uninstalled, but its region is left allocated:
// that snapshot may already be durable and name it, and recovery's
// orphan sweep frees the region if nothing durable does. Callers are the
// serialized appender — never holding s.mu.
func (s *Store) newSegment(minCap int64) (*segment, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID = id + 1
	chunk := s.cfg.SegmentSize
	if int64(chunk) < minCap {
		chunk = int(minCap)
	}
	region := s.dev.NewRegion(chunk)
	// The chunk size is pow2-rounded: it keeps every segment single-chunk.
	g := &segment{id: id, region: region, cap: int64(region.ChunkSize()), trusted: true}
	g.dead = newDeadSet(g.cap)
	// The segment being rolled past is full (or errored): seal it so it
	// becomes a GC candidate.
	s.SealActive()
	s.installLocked(g)
	s.active.Store(g)
	s.mu.Unlock()

	if s.OnNewSegment != nil {
		if err := s.OnNewSegment(id, region.Index()); err != nil {
			s.mu.Lock()
			s.removeLocked(id)
			s.mu.Unlock()
			s.active.CompareAndSwap(g, nil)
			return nil, err
		}
	}
	return g, nil
}

// encodeEntry writes the entry for (key, value, seq) into dst, which is
// exactly the entry's length. The checksum is computed last, over the
// bytes where they lie.
func encodeEntry(dst, key, value []byte, seq uint64) {
	binary.LittleEndian.PutUint32(dst[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(dst[8:12], uint32(len(value)))
	binary.LittleEndian.PutUint64(dst[12:20], seq)
	copy(dst[entryHeaderSize:], key)
	copy(dst[entryHeaderSize+len(key):], value)
	binary.LittleEndian.PutUint32(dst[0:4], crc32.ChecksumIEEE(dst[4:]))
}

// Append stores (key, value, seq) and returns the entry's address. The
// segment's size is published only once the whole entry is on the media,
// so every byte below it belongs to a complete entry: readers and Walk
// never see a partial one, and a crash image taken mid-append holds a
// checksum-failing tail, where the recovery scan stops. Any write error
// seals the segment with its size where it was — torn bytes only ever sit
// past a sealed segment's extent — and later appends land in a fresh one.
func (s *Store) Append(key, value []byte, seq uint64) (Addr, error) {
	entryLen := entryHeaderSize + len(key) + len(value)
	g := s.active.Load()
	if g == nil || g.sealed.Load() || g.size.Load()+int64(entryLen) > g.cap ||
		g.size.Load() >= int64(s.cfg.SegmentSize) {
		var err error
		if g, err = s.newSegment(int64(entryLen)); err != nil {
			return Addr{}, err
		}
	}

	off, err := s.appendNVM(g, key, value, seq, entryLen)
	if err != nil {
		g.sealed.Store(true)
		return Addr{}, err
	}
	g.size.Store(off + alignUp(int64(entryLen)))
	g.live.Add(int64(entryLen))
	s.appends.Add(1)
	s.appendedBytes.Add(int64(entryLen))
	return Addr{Seg: g.id, Off: off, Len: uint32(entryLen)}, nil
}

// appendNVM reserves the entry's extent and encodes it there: one device
// charge for the whole entry, no staging copy, no heap allocation.
func (s *Store) appendNVM(g *segment, key, value []byte, seq uint64, entryLen int) (int64, error) {
	// Gate the whole entry against the fault plan up front; a torn outcome
	// leaves exactly its first Torn bytes on the media, like a torn file
	// write, and the crc catches it at recovery.
	if out := s.dev.CheckWrite(entryLen); out.Err != nil {
		if out.Torn > 0 {
			if a, aerr := g.region.Alloc(entryLen); aerr == nil {
				entry := make([]byte, entryLen)
				encodeEntry(entry, key, value, seq)
				g.region.Write(a, entry[:out.Torn])
			}
		}
		return 0, out.Err
	}
	a, err := g.region.Alloc(entryLen)
	if err != nil {
		return 0, err
	}
	g.region.ChargeWrite(entryLen)
	encodeEntry(g.region.Bytes(a, entryLen), key, value, seq)
	return a.Offset(), nil
}

// read returns the n bytes at off, an alias of log storage, once the
// device's fault plan lets the read through. An injected read fault is
// ErrCorrupt, like every other failure to resolve an entry, and keeps
// its cause: nvm.IsTransient tells a retryable fault apart. A crashed
// plan does not fail it: a crash freezes the media, and the engine's
// other NVM reads go on seeing it, as the crash harness's probes expect.
func (s *Store) read(g *segment, off int64, n int) ([]byte, error) {
	if err := s.dev.CheckRead(n); err != nil && !errors.Is(err, nvm.ErrCrashed) {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return g.region.Read(g.region.Base().Add(off), n), nil
}

// Read resolves a pointer to its (key, value, seq). The returned slices
// alias log storage and must be copied before the caller releases its
// version pin. A failure is ErrCorrupt (wrapped with detail): unknown
// segment, out-of-bounds address, checksum mismatch, or a device read
// fault.
func (s *Store) Read(a Addr) (key, value []byte, seq uint64, err error) {
	g := s.lookup(a.Seg)
	if g == nil {
		return nil, nil, 0, fmt.Errorf("%w: pointer into unknown segment %d", ErrCorrupt, a.Seg)
	}
	if a.Len < entryHeaderSize || a.Off < 0 || a.Off+int64(a.Len) > g.size.Load() {
		return nil, nil, 0, fmt.Errorf("%w: address %d:%d+%d out of bounds", ErrCorrupt, a.Seg, a.Off, a.Len)
	}
	buf, err := s.read(g, a.Off, int(a.Len))
	if err != nil {
		return nil, nil, 0, err
	}
	return decodeEntry(buf, a)
}

func decodeEntry(buf []byte, a Addr) (key, value []byte, seq uint64, err error) {
	if len(buf) < entryHeaderSize {
		return nil, nil, 0, fmt.Errorf("%w: entry at %d:%d shorter than its header", ErrCorrupt, a.Seg, a.Off)
	}
	crc := binary.LittleEndian.Uint32(buf[0:4])
	keyLen := binary.LittleEndian.Uint32(buf[4:8])
	valLen := binary.LittleEndian.Uint32(buf[8:12])
	seq = binary.LittleEndian.Uint64(buf[12:20])
	if int64(entryHeaderSize)+int64(keyLen)+int64(valLen) != int64(len(buf)) {
		return nil, nil, 0, fmt.Errorf("%w: entry at %d:%d length mismatch", ErrCorrupt, a.Seg, a.Off)
	}
	if crc32.ChecksumIEEE(buf[4:]) != crc {
		return nil, nil, 0, fmt.Errorf("%w: checksum mismatch at %d:%d", ErrCorrupt, a.Seg, a.Off)
	}
	key = buf[entryHeaderSize : entryHeaderSize+keyLen]
	value = buf[entryHeaderSize+keyLen:]
	return key, value, seq, nil
}

// MarkDead records that the entry at a is no longer referenced by the LSM
// structure (dropped by a merge, superseded, or relocated). It is
// idempotent: replays and duplicate drop notifications for one address
// count once, so a segment's live bytes are exact. The count steers GC
// candidate selection; whether a mark also lets Walk skip the entry is the
// segment's trust rule. Unknown segments (already reclaimed) are ignored.
func (s *Store) MarkDead(a Addr) {
	if g := s.lookup(a.Seg); g != nil && g.markDead(a.Off) {
		g.live.Add(-int64(a.Len))
	}
}

// SealActive closes the current segment; the next append opens a fresh
// one. Recovery calls it so replayed segments are never appended to.
func (s *Store) SealActive() {
	if g := s.active.Load(); g != nil {
		g.sealed.Store(true)
	}
}

// PickGC returns the sealed segment with the highest dead ratio at or
// above the configured threshold, or ok=false when nothing qualifies.
func (s *Store) PickGC() (id uint32, ok bool) {
	// A filled-but-active segment becomes a candidate without waiting for
	// the next append (which would roll past it anyway).
	if g := s.active.Load(); g != nil && g.size.Load() >= int64(s.cfg.SegmentSize) {
		g.sealed.Store(true)
	}
	best := -1.0
	for _, g := range *s.segs.Load() {
		if !g.sealed.Load() || g.condemned.Load() {
			continue
		}
		if r := g.deadRatio(); r >= s.cfg.GCDeadRatio && r > best {
			best = r
			id = g.id
			ok = true
		}
	}
	return id, ok
}

// Walk visits, in append order, every entry of one segment that may still
// be referenced, until fn returns false. It reads headers and keys only:
// no value byte is touched and no checksum verified — everything below the
// segment's size is a complete entry (Append publishes the size last,
// Attach takes it from a checksum-validated scan), and a caller that wants
// the value calls Read, which verifies it. On a trusted segment an entry
// already marked dead is passed over at the cost of its header; elsewhere
// marks are advisory and every entry is yielded. key is only valid during
// the callback.
func (s *Store) Walk(id uint32, fn func(key []byte, seq uint64, a Addr) bool) error {
	g := s.lookup(id)
	if g == nil {
		return fmt.Errorf("%w: walk of unknown segment %d", ErrCorrupt, id)
	}
	size := g.size.Load()
	for off := int64(0); off+entryHeaderSize <= size; {
		hdr, err := s.read(g, off, entryHeaderSize)
		if err != nil {
			return err
		}
		keyLen := binary.LittleEndian.Uint32(hdr[4:8])
		valLen := binary.LittleEndian.Uint32(hdr[8:12])
		seq := binary.LittleEndian.Uint64(hdr[12:20])
		entryLen := int64(entryHeaderSize) + int64(keyLen) + int64(valLen)
		if keyLen == 0 || off+entryLen > size {
			return fmt.Errorf("%w: malformed entry at %d:%d inside the segment's extent", ErrCorrupt, id, off)
		}
		if !(g.trusted && g.markedDead(off)) {
			key, err := s.read(g, off+entryHeaderSize, int(keyLen))
			if err != nil {
				return err
			}
			if !fn(key, seq, Addr{Seg: id, Off: off, Len: uint32(entryLen)}) {
				return nil
			}
		}
		off += alignUp(entryLen)
	}
	return nil
}

// Condemn claims a segment for reclamation: exactly one caller gets true
// per segment lifetime. A condemned segment stays installed and readable
// (epoch-pinned readers may still resolve into it) but PickGC no longer
// offers it — the claimant owns logging the free and queueing Free.
func (s *Store) Condemn(id uint32) bool {
	g := s.lookup(id)
	if g == nil {
		return false
	}
	if !g.condemned.CompareAndSwap(false, true) {
		return false
	}
	// Reclamation is logically complete here (the claimant makes it durable
	// before queueing the deferred free), so the counters report it now —
	// Free only returns the memory.
	s.reclaimedSegs.Add(1)
	s.reclaimedBytes.Add(g.size.Load())
	return true
}

// Free removes a segment from the store and releases its backing memory.
// The engine calls it only once no reader, snapshot, or pinned version
// can still resolve addresses into the segment (epoch-deferred).
func (s *Store) Free(id uint32) {
	s.mu.Lock()
	g := s.removeLocked(id)
	s.mu.Unlock()
	if g == nil {
		return
	}
	s.active.CompareAndSwap(g, nil)
	s.dev.Release(g.region)
}

// AddRelocation accounts one live value moved by GC.
func (s *Store) AddRelocation(bytes int64) {
	s.relocations.Add(1)
	s.relocatedBytes.Add(bytes)
}

// Attach re-installs a recovered NVM segment from its region, rebuilding
// its extent with a checksum-validated scan (torn tails are excluded).
// Live bytes are conservatively reset to the full extent — GC relearns
// dead space from compaction drops; it can only be delayed, never unsafe.
// The segment is sealed: recovery never appends to replayed segments. It
// is not trusted: its dead marks count bytes, but Walk yields every entry.
func (s *Store) Attach(id uint32, region *vaddr.Region) {
	g := &segment{id: id, region: region, cap: int64(region.ChunkSize())}
	g.sealed.Store(true)
	size := scanExtent(region)
	g.size.Store(size)
	g.live.Store(size)
	g.dead = newDeadSet(size)
	s.mu.Lock()
	s.installLocked(g)
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.mu.Unlock()
}

// scanExtent walks crc-valid entries from offset 0 and returns the byte
// extent of the valid prefix.
func scanExtent(region *vaddr.Region) int64 {
	limit := region.Size()
	var off int64
	for off+entryHeaderSize <= limit {
		hdr := region.Read(region.Base().Add(off), entryHeaderSize)
		keyLen := binary.LittleEndian.Uint32(hdr[4:8])
		valLen := binary.LittleEndian.Uint32(hdr[8:12])
		entryLen := int64(entryHeaderSize) + int64(keyLen) + int64(valLen)
		if keyLen == 0 || off+entryLen > limit {
			break
		}
		buf := region.Read(region.Base().Add(off), int(entryLen))
		if _, _, _, err := decodeEntry(buf, Addr{Off: off, Len: uint32(entryLen)}); err != nil {
			break
		}
		off += alignUp(entryLen)
	}
	return off
}

// Segments returns the ids of all installed segments, and Regions the NVM
// regions backing them — the leak audit's view of what the value log owns.
func (s *Store) Segments() []uint32 {
	m := *s.segs.Load()
	out := make([]uint32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

// Regions returns the regions backing installed segments.
func (s *Store) Regions() []*vaddr.Region {
	m := *s.segs.Load()
	out := make([]*vaddr.Region, 0, len(m))
	for _, g := range m {
		out = append(out, g.region)
	}
	return out
}

// SegmentRef identifies one installed segment for manifest snapshots.
type SegmentRef struct {
	ID     uint32
	Region uint32
}

// SnapshotState returns the next segment id and the installed segments
// sorted by id — what a manifest full-state snapshot embeds. Condemned
// segments are excluded: their live entries are already relocated and their region is
// about to be freed, so a snapshot that named one (say, rolled in place
// of its free record) would outlive the region.
func (s *Store) SnapshotState() (next uint32, segs []SegmentRef) {
	s.mu.Lock()
	next = s.nextID
	s.mu.Unlock()
	for id, g := range *s.segs.Load() {
		if !g.condemned.Load() {
			segs = append(segs, SegmentRef{ID: id, Region: g.region.Index()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].ID < segs[j].ID })
	return next, segs
}

// NextID returns the id the next segment will get. Ids are never reused,
// so the difference between two readings is the number of segments
// created in between — the log growth background GC paces itself by.
func (s *Store) NextID() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// SetNextID raises the next segment id to at least id. Recovery restores
// the persisted counter so reclaimed segment ids are never reused.
func (s *Store) SetNextID(id uint32) {
	s.mu.Lock()
	if id > s.nextID {
		s.nextID = id
	}
	s.mu.Unlock()
}

// ResetCounters zeroes the cumulative counters (appends, relocations,
// reclaims) between bench phases. The segment, size and live-byte gauges
// describe the log's state, not a phase's work, and stay as they are.
func (s *Store) ResetCounters() {
	s.appends.Store(0)
	s.appendedBytes.Store(0)
	s.relocations.Store(0)
	s.relocatedBytes.Store(0)
	s.reclaimedSegs.Store(0)
	s.reclaimedBytes.Store(0)
}

// Counters returns a snapshot of the store's accounting.
func (s *Store) Counters() Counters {
	var c Counters
	for _, g := range *s.segs.Load() {
		c.Segments++
		c.SegmentBytes += g.size.Load()
		c.LiveBytes += g.live.Load()
	}
	c.Appends = s.appends.Load()
	c.AppendedBytes = s.appendedBytes.Load()
	c.GCRelocations = s.relocations.Load()
	c.GCRelocatedBytes = s.relocatedBytes.Load()
	c.GCSegmentsReclaimed = s.reclaimedSegs.Load()
	c.GCReclaimedBytes = s.reclaimedBytes.Load()
	return c
}
