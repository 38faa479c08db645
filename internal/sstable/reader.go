package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"miodb/internal/bloom"
	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/stats"
	"miodb/internal/vfs"
)

// Table reads one SSTable. The index and bloom filter are decoded at Open
// and cached (the role of LevelDB's table cache); data blocks are read and
// deserialized on demand, charging the device and the deserialization
// clock each time.
type Table struct {
	r      *vfs.Reader
	st     *stats.Recorder
	index  []indexEntry
	filter *bloom.Filter

	// Smallest and Largest bound the table's user keys (for leveled
	// compaction overlap checks).
	Smallest, Largest []byte
	// Size is the file size in bytes.
	Size int64
}

// Open parses a table's footer, index, and filter.
func Open(r *vfs.Reader, st *stats.Recorder) (*Table, error) {
	size := r.Size()
	if size < footerSize {
		return nil, fmt.Errorf("sstable: file too small (%d bytes)", size)
	}
	var footer [footerSize]byte
	if _, err := r.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[32:40]) != Magic {
		return nil, fmt.Errorf("sstable: bad magic")
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	filterOff := int64(binary.LittleEndian.Uint64(footer[16:24]))
	filterLen := int64(binary.LittleEndian.Uint64(footer[24:32]))

	t := &Table{r: r, st: st, Size: size}

	if filterLen > 0 {
		fb := make([]byte, filterLen)
		if _, err := r.ReadAt(fb, filterOff); err != nil {
			return nil, err
		}
		f, err := bloom.Decode(fb)
		if err != nil {
			return nil, err
		}
		t.filter = f
	}

	ib := make([]byte, indexLen)
	if _, err := r.ReadAt(ib, indexOff); err != nil {
		return nil, err
	}
	for len(ib) > 0 {
		klen, n := binary.Uvarint(ib)
		if n <= 0 || uint64(len(ib)) < uint64(n)+klen {
			return nil, fmt.Errorf("sstable: corrupt index")
		}
		ib = ib[n:]
		ikey := append([]byte(nil), ib[:klen]...)
		ib = ib[klen:]
		off, n2 := binary.Uvarint(ib)
		if n2 <= 0 {
			return nil, fmt.Errorf("sstable: corrupt index offset")
		}
		ib = ib[n2:]
		sz, n3 := binary.Uvarint(ib)
		if n3 <= 0 {
			return nil, fmt.Errorf("sstable: corrupt index size")
		}
		ib = ib[n3:]
		t.index = append(t.index, indexEntry{lastIKey: ikey, offset: off, size: sz})
	}
	if len(t.index) > 0 {
		// Largest from the index; smallest from the first block's first key.
		uk, _, _, ok := keys.Decode(t.index[len(t.index)-1].lastIKey)
		if !ok {
			return nil, fmt.Errorf("sstable: corrupt last key")
		}
		t.Largest = append([]byte(nil), uk...)
		blk, err := t.readBlock(0)
		if err != nil {
			return nil, err
		}
		if len(blk.entries) > 0 {
			t.Smallest = append([]byte(nil), blk.entries[0].key...)
		}
	}
	return t, nil
}

// Filter exposes the table's bloom filter (may be nil).
func (t *Table) Filter() *bloom.Filter { return t.filter }

// Entries returns the number of entries (by full scan; used by tests).
func (t *Table) Entries() (int64, error) {
	var n int64
	it := t.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	return n, nil
}

type entry struct {
	key   []byte
	seq   uint64
	kind  keys.Kind
	value []byte
}

type block struct {
	entries []entry
}

// readBlock reads and deserializes data block i. The read is charged to
// the device by vfs; the decode loop is charged to the deserialization
// clock — the cost that dominates the baselines' read path (Fig 2(b)).
func (t *Table) readBlock(i int) (*block, error) {
	ie := t.index[i]
	raw := make([]byte, ie.size)
	if _, err := t.r.ReadAt(raw, int64(ie.offset)); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		if t.st != nil {
			t.st.Add(stats.DeserializeNs, int64(time.Since(start)))
		}
	}()
	if len(raw) < 4 {
		return nil, fmt.Errorf("sstable: block %d too small", i)
	}
	nRestarts := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	dataEnd := len(raw) - 4 - int(nRestarts)*4
	if dataEnd < 0 {
		return nil, fmt.Errorf("sstable: block %d corrupt restarts", i)
	}
	b := &block{}
	data := raw[:dataEnd]
	var prevKey []byte
	for len(data) > 0 {
		shared, n1 := binary.Uvarint(data)
		if n1 <= 0 {
			return nil, fmt.Errorf("sstable: corrupt entry header")
		}
		data = data[n1:]
		unshared, n2 := binary.Uvarint(data)
		if n2 <= 0 {
			return nil, fmt.Errorf("sstable: corrupt entry header")
		}
		data = data[n2:]
		vlen, n3 := binary.Uvarint(data)
		if n3 <= 0 {
			return nil, fmt.Errorf("sstable: corrupt entry header")
		}
		data = data[n3:]
		if len(data) < 8 {
			return nil, fmt.Errorf("sstable: truncated trailer")
		}
		seq, kind := keys.UnpackTrailer(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
		if uint64(len(data)) < unshared+vlen || shared > uint64(len(prevKey)) {
			return nil, fmt.Errorf("sstable: truncated entry")
		}
		key := make([]byte, shared+unshared)
		copy(key, prevKey[:shared])
		copy(key[shared:], data[:unshared])
		data = data[unshared:]
		value := append([]byte(nil), data[:vlen]...)
		data = data[vlen:]
		b.entries = append(b.entries, entry{key: key, seq: seq, kind: kind, value: value})
		prevKey = key
	}
	return b, nil
}

// Get returns the newest version of key in the table.
func (t *Table) Get(key []byte) (value []byte, seq uint64, kind keys.Kind, ok bool) {
	if t.filter != nil && !t.filter.MayContain(key) {
		return nil, 0, 0, false
	}
	target := keys.Encode(nil, key, keys.MaxSeq, keys.KindSet)
	i := sort.Search(len(t.index), func(i int) bool {
		return keys.CompareInternal(t.index[i].lastIKey, target) >= 0
	})
	if i >= len(t.index) {
		return nil, 0, 0, false
	}
	blk, err := t.readBlock(i)
	if err != nil {
		return nil, 0, 0, false
	}
	j := sort.Search(len(blk.entries), func(j int) bool {
		e := blk.entries[j]
		return keys.Compare(e.key, e.seq, key, keys.MaxSeq) >= 0
	})
	if j >= len(blk.entries) || !bytes.Equal(blk.entries[j].key, key) {
		return nil, 0, 0, false
	}
	e := blk.entries[j]
	return e.value, e.seq, e.kind, true
}

// iterator walks the table's blocks in order.
type iterator struct {
	t        *Table
	blockIdx int
	blk      *block
	pos      int
	err      error
}

// NewIterator returns an iterator over the whole table.
func (t *Table) NewIterator() iterx.Iterator { return &iterator{t: t} }

func (it *iterator) loadBlock(i int) {
	if i >= len(it.t.index) {
		it.blk = nil
		return
	}
	blk, err := it.t.readBlock(i)
	if err != nil {
		it.err = err
		it.blk = nil
		return
	}
	it.blockIdx = i
	it.blk = blk
	it.pos = 0
}

// SeekToFirst positions at the table's first entry.
func (it *iterator) SeekToFirst() {
	it.loadBlock(0)
}

// Seek positions at the first entry with user key ≥ key.
func (it *iterator) Seek(key []byte) {
	target := keys.Encode(nil, key, keys.MaxSeq, keys.KindSet)
	i := sort.Search(len(it.t.index), func(i int) bool {
		return keys.CompareInternal(it.t.index[i].lastIKey, target) >= 0
	})
	if i >= len(it.t.index) {
		it.blk = nil
		return
	}
	it.loadBlock(i)
	if it.blk == nil {
		return
	}
	it.pos = sort.Search(len(it.blk.entries), func(j int) bool {
		e := it.blk.entries[j]
		return keys.Compare(e.key, e.seq, key, keys.MaxSeq) >= 0
	})
	if it.pos >= len(it.blk.entries) {
		it.loadBlock(i + 1)
	}
}

// Next advances one entry, crossing block boundaries as needed.
func (it *iterator) Next() {
	if it.blk == nil {
		return
	}
	it.pos++
	if it.pos >= len(it.blk.entries) {
		it.loadBlock(it.blockIdx + 1)
	}
}

// Valid reports whether positioned on an entry.
func (it *iterator) Valid() bool { return it.blk != nil && it.pos < len(it.blk.entries) }

// Key returns the current user key.
func (it *iterator) Key() []byte { return it.blk.entries[it.pos].key }

// Value returns the current value.
func (it *iterator) Value() []byte { return it.blk.entries[it.pos].value }

// Seq returns the current sequence number.
func (it *iterator) Seq() uint64 { return it.blk.entries[it.pos].seq }

// Kind returns the current entry kind.
func (it *iterator) Kind() keys.Kind { return it.blk.entries[it.pos].kind }
