// Package matrixkv reimplements MatrixKV (Yao et al., ATC'20) as the
// MioDB paper evaluates it: the first LSM level is replaced by a *matrix
// container* in NVM — rows are serialized, sorted runs flushed from the
// DRAM memtable, with in-DRAM sparse indexes — and a fine-grained *column
// compaction* merges one key-range column of all rows at a time into L1
// SSTables, bypassing L0 entirely.
//
// Cost structure reproduced, per the paper's §2.3/§3.1:
//
//   - Memtable flushes serialize into rows (cheaper than a full SSTable
//     path, but still real serialization on NVM).
//   - Reads touching the container deserialize row segments (the large-L0
//     deserialization cost the paper calls out).
//   - Column compactions are small, so stalls are short — but the write
//     path still throttles when the container outgrows its budget, which
//     is where MatrixKV's remaining cumulative stalls come from.
package matrixkv

import (
	"bytes"
	"encoding/binary"
	"sort"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/stats"
	"miodb/internal/vaddr"
)

// rowIndexStride is how many entries share one index point. The paper's
// matrix container keeps its row indexes in DRAM ("on-DRAM indexes for
// the matrix container"); indexing every entry makes point probes a DRAM
// binary search plus at most one NVM entry deserialization, which is the
// cost model the paper's read results imply.
const rowIndexStride = 1

// row is one serialized run of the matrix container: sorted entries in an
// NVM region with a sparse in-DRAM index ("on-DRAM indexes for the matrix
// container"). Row data is immutable; column compaction consumes logical
// key ranges tracked by cycle arithmetic in the container.
type row struct {
	id     uint64
	region *vaddr.Region
	size   int64

	// segs maps the row's dense logical byte stream onto its region
	// allocations: segment i covers logical [i*chunkSize, …).
	segs []vaddr.Addr

	// Sparse index: the key and byte offset of every stride-th entry,
	// plus a terminator at the end offset.
	indexKeys [][]byte
	indexOffs []int64

	count          int
	minKey, maxKey []byte
	minSeq, maxSeq uint64

	// Consumption state (guarded by the container mutex): the row joined
	// during column cycle joinCycle with the column cursor at sufFrom;
	// see consumed() in matrixkv.go for the covering rule.
	joinCycle int
	sufFrom   []byte
	dead      bool
}

// entry layout: [u32 klen][u32 vlen][u64 trailer][key][value], 8-aligned
// per allocation chunk rules are avoided by writing the row as one blob
// across chunk-sized segments.
const entryHeader = 16

// buildRow serializes a memtable into a fresh NVM row. The encode loop is
// charged as serialization time; the NVM write as device traffic.
func buildRow(dev *nvm.Device, id uint64, mt *memtable.MemTable, chunkSize int, st *stats.Recorder) *row {
	start := time.Now()
	r := &row{id: id, region: dev.NewRegion(chunkSize)}
	chunkSize = r.region.ChunkSize() // rounded to a power of two
	var buf []byte
	it := mt.NewIterator()
	n := 0
	var off int64
	writeSeg := func(seg []byte) {
		addr, err := r.region.Alloc(chunkSize)
		if err != nil {
			panic(err)
		}
		r.region.Write(addr, seg)
		r.segs = append(r.segs, addr)
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k, v := it.Key(), it.Value()
		if n%rowIndexStride == 0 {
			r.indexKeys = append(r.indexKeys, append([]byte(nil), k...))
			r.indexOffs = append(r.indexOffs, off+int64(len(buf)))
		}
		var hdr [entryHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(k)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(v)))
		binary.LittleEndian.PutUint64(hdr[8:16], keys.Trailer(it.Seq(), it.Kind()))
		buf = append(buf, hdr[:]...)
		buf = append(buf, k...)
		buf = append(buf, v...)
		if r.minKey == nil {
			r.minKey = append([]byte(nil), k...)
		}
		r.maxKey = append(r.maxKey[:0], k...)
		if s := it.Seq(); r.minSeq == 0 || s < r.minSeq {
			r.minSeq = s
		}
		if s := it.Seq(); s > r.maxSeq {
			r.maxSeq = s
		}
		n++
		// Write out in chunk-size segments so entries pack densely.
		for len(buf) >= chunkSize {
			writeSeg(buf[:chunkSize])
			buf = buf[chunkSize:]
			off += int64(chunkSize)
		}
	}
	if len(buf) > 0 {
		writeSeg(buf)
		off += int64(len(buf))
	}
	r.count = n
	r.size = off
	r.indexKeys = append(r.indexKeys, nil) // terminator
	r.indexOffs = append(r.indexOffs, off)
	if st != nil {
		st.Add(stats.SerializeNs, int64(time.Since(start)))
	}
	return r
}

// readAt returns n bytes at logical offset off. Row blobs are written in
// dense chunk-size segments, so a logical range may span segments.
func (r *row) readAt(off int64, n int) []byte {
	out := make([]byte, 0, n)
	chunk := int64(r.region.ChunkSize())
	for n > 0 {
		seg := r.segs[off/chunk]
		inSeg := int(chunk - off%chunk)
		if inSeg > n {
			inSeg = n
		}
		out = append(out, r.region.Read(seg.Add(off%chunk), inSeg)...)
		off += int64(inSeg)
		n -= inSeg
	}
	return out
}

// rowIter decodes a row sequentially from a sparse-index position. It is
// the deserialization path: every decoded segment charges the clock.
type rowIter struct {
	r   *row
	st  *stats.Recorder
	off int64

	key   []byte
	value []byte
	seq   uint64
	kind  keys.Kind
	valid bool
}

func (r *row) newIter(st *stats.Recorder) *rowIter { return &rowIter{r: r, st: st} }

// SeekToFirst positions at the row's first entry.
func (it *rowIter) SeekToFirst() {
	it.off = 0
	it.valid = it.r.count > 0
	if it.valid {
		it.decode()
	}
}

// Seek positions at the first entry with key ≥ target, using the sparse
// index to skip ahead and decoding forward from there.
func (it *rowIter) Seek(target []byte) {
	// Binary search the sparse index for the last point strictly before
	// target. A point with key == target may sit in the middle of that
	// key's version run (versions order newest-first), so starting there
	// would skip the newer versions; starting strictly before the key
	// guarantees the scan meets the newest version first.
	lo, hi := 0, len(it.r.indexKeys)-1 // last is terminator
	pos := 0
	for lo < hi {
		mid := (lo + hi) / 2
		if it.r.indexKeys[mid] != nil && bytes.Compare(it.r.indexKeys[mid], target) < 0 {
			pos = mid
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.off = it.r.indexOffs[pos]
	it.valid = it.off < it.r.size
	if it.valid {
		it.decode()
		for it.valid && bytes.Compare(it.key, target) < 0 {
			it.Next()
		}
	}
}

// decode reads the entry at the current offset.
func (it *rowIter) decode() {
	start := time.Now()
	hdr := it.r.readAt(it.off, entryHeader)
	klen := int(binary.LittleEndian.Uint32(hdr[0:4]))
	vlen := int(binary.LittleEndian.Uint32(hdr[4:8]))
	seq, kind := keys.UnpackTrailer(binary.LittleEndian.Uint64(hdr[8:16]))
	body := it.r.readAt(it.off+entryHeader, klen+vlen)
	it.key = body[:klen]
	it.value = body[klen:]
	it.seq, it.kind = seq, kind
	if it.st != nil {
		it.st.Add(stats.DeserializeNs, int64(time.Since(start)))
	}
}

// Next advances one entry.
func (it *rowIter) Next() {
	if !it.valid {
		return
	}
	it.off += entryHeader + int64(len(it.key)+len(it.value))
	if it.off >= it.r.size {
		it.valid = false
		return
	}
	it.decode()
}

// Valid reports whether positioned on an entry.
func (it *rowIter) Valid() bool { return it.valid }

// Key returns the current user key.
func (it *rowIter) Key() []byte { return it.key }

// Value returns the current value.
func (it *rowIter) Value() []byte { return it.value }

// Seq returns the current sequence number.
func (it *rowIter) Seq() uint64 { return it.seq }

// Kind returns the current entry kind.
func (it *rowIter) Kind() keys.Kind { return it.kind }

var _ iterx.Iterator = (*rowIter)(nil)

// get returns the newest version of key in the row (ignoring consumption
// state, which the container checks). The in-DRAM index answers presence
// exactly, so a miss costs no NVM access at all and a hit deserializes
// exactly one entry.
func (r *row) get(key []byte, st *stats.Recorder) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	if r.count == 0 || bytes.Compare(key, r.minKey) < 0 || bytes.Compare(key, r.maxKey) > 0 {
		return nil, 0, 0, false
	}
	// First index entry with key ≥ target; entries order (key asc, seq
	// desc), so an exact match here is the newest version.
	n := len(r.indexKeys) - 1 // last is the terminator
	i := sort.Search(n, func(i int) bool { return bytes.Compare(r.indexKeys[i], key) >= 0 })
	if i >= n || !bytes.Equal(r.indexKeys[i], key) {
		return nil, 0, 0, false
	}
	it := r.newIter(st)
	it.off = r.indexOffs[i]
	it.valid = true
	it.decode()
	return it.Value(), it.Seq(), it.Kind(), true
}

// release frees the row's NVM region.
func (r *row) release(dev *nvm.Device) {
	dev.Release(r.region)
}
