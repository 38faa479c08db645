// Package sstable implements the block-based Sorted String Table format
// used by the baselines (LevelDB-style, NoveLSM, MatrixKV's L1+) and by
// MioDB's DRAM-NVM-SSD mode. It is a faithful, simplified LevelDB format:
// prefix-compressed data blocks with restart points, an index block keyed
// by each block's last internal key, a whole-table bloom filter, and a
// fixed footer.
//
// The point of keeping a real serialized format — rather than just dumping
// entries — is that the costs the paper attributes to SSTables arise here
// for real: building a table serializes every entry (charged as
// serialization time), and reading one back requires block I/O plus
// decode (charged as deserialization time). MioDB's PMTables pay neither.
package sstable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"time"

	"miodb/internal/bloom"
	"miodb/internal/keys"
	"miodb/internal/stats"
	"miodb/internal/vfs"
)

const (
	// Magic terminates every table file.
	Magic = 0x6d696f5353546230 // "mioSSTb0"
	// MagicCompressed marks a table whose data blocks are
	// flate-compressed (LevelDB compresses blocks with snappy; flate is
	// the stdlib equivalent). Index and filter blocks stay raw.
	MagicCompressed = 0x6d696f5353546231 // "mioSSTb1"

	footerSize      = 40
	restartInterval = 16

	// DefaultBlockSize is the data block target (LevelDB's 4 KiB).
	DefaultBlockSize = 4 << 10
)

// BuilderOptions configures table construction.
type BuilderOptions struct {
	// BlockSize is the uncompressed data block target size.
	BlockSize int
	// BloomBitsPerKey sizes the table's bloom filter (0 disables).
	BloomBitsPerKey int
	// ExpectedKeys pre-sizes the bloom filter.
	ExpectedKeys int
	// Stats receives serialization time; may be nil.
	Stats *stats.Recorder
	// Compression flate-compresses data blocks. Off by default: the
	// paper's comparison isolates serialization structure, not codec
	// choice, and compression would skew the byte-traffic accounting
	// between stores.
	Compression bool
}

func (o BuilderOptions) withDefaults() BuilderOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.ExpectedKeys <= 0 {
		o.ExpectedKeys = 1 << 14
	}
	return o
}

// Builder streams sorted entries into an SSTable file. Entries must be
// added in (user key asc, seq desc) order.
type Builder struct {
	w    *vfs.Writer
	opts BuilderOptions

	block     []byte
	restarts  []uint32
	counter   int
	lastKey   []byte
	lastSeq   uint64
	hasLast   bool
	index     []indexEntry
	filter    *bloom.Filter
	blockLast []byte // last internal key of the open block
}

type indexEntry struct {
	lastIKey []byte
	offset   uint64
	size     uint64
}

// NewBuilder starts a table in the given file writer.
func NewBuilder(w *vfs.Writer, opts BuilderOptions) *Builder {
	opts = opts.withDefaults()
	b := &Builder{w: w, opts: opts}
	if opts.BloomBitsPerKey > 0 {
		b.filter = bloom.New(opts.ExpectedKeys, opts.BloomBitsPerKey)
	}
	return b
}

// Add appends one entry. The serialization work (prefix compression,
// varint encoding, block layout) is timed into the stats recorder.
func (b *Builder) Add(key []byte, seq uint64, kind keys.Kind, value []byte) error {
	start := time.Now()
	defer func() {
		if b.opts.Stats != nil {
			b.opts.Stats.Add(stats.SerializeNs, int64(time.Since(start)))
		}
	}()

	shared := 0
	if b.counter%restartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.block)))
	} else if b.hasLast {
		max := len(key)
		if len(b.lastKey) < max {
			max = len(b.lastKey)
		}
		for shared < max && key[shared] == b.lastKey[shared] {
			shared++
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	b.block = append(b.block, tmp[:binary.PutUvarint(tmp[:], uint64(shared))]...)
	b.block = append(b.block, tmp[:binary.PutUvarint(tmp[:], uint64(len(key)-shared))]...)
	b.block = append(b.block, tmp[:binary.PutUvarint(tmp[:], uint64(len(value)))]...)
	binary.LittleEndian.PutUint64(tmp[:8], keys.Trailer(seq, kind))
	b.block = append(b.block, tmp[:8]...)
	b.block = append(b.block, key[shared:]...)
	b.block = append(b.block, value...)

	b.counter++
	b.lastKey = append(b.lastKey[:0], key...)
	b.lastSeq = seq
	b.hasLast = true
	b.blockLast = keys.Encode(b.blockLast[:0], key, seq, kind)
	if b.filter != nil {
		b.filter.Add(key)
	}
	if len(b.block) >= b.opts.BlockSize {
		return b.finishBlock()
	}
	return nil
}

func (b *Builder) finishBlock() error {
	if len(b.block) == 0 {
		return nil
	}
	var tmp [4]byte
	for _, r := range b.restarts {
		binary.LittleEndian.PutUint32(tmp[:], r)
		b.block = append(b.block, tmp[:4]...)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.restarts)))
	b.block = append(b.block, tmp[:4]...)

	payload := b.block
	if b.opts.Compression {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(b.block); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		payload = buf.Bytes()
	}
	offset := uint64(b.w.Offset())
	if _, err := b.w.Write(payload); err != nil {
		return err
	}
	b.index = append(b.index, indexEntry{
		lastIKey: append([]byte(nil), b.blockLast...),
		offset:   offset,
		size:     uint64(len(payload)),
	})
	b.block = b.block[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.hasLast = false
	return nil
}

// EstimatedSize returns the bytes written plus the open block.
func (b *Builder) EstimatedSize() int64 { return b.w.Offset() + int64(len(b.block)) }

// Finish flushes the open block, writes filter + index + footer, and
// syncs. The table is complete afterwards.
func (b *Builder) Finish() error {
	start := time.Now()
	if err := b.finishBlock(); err != nil {
		return err
	}
	var filterOff, filterLen uint64
	if b.filter != nil {
		enc := b.filter.Encode()
		filterOff = uint64(b.w.Offset())
		filterLen = uint64(len(enc))
		if _, err := b.w.Write(enc); err != nil {
			return err
		}
	}
	indexOff := uint64(b.w.Offset())
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, e := range b.index {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.lastIKey)))]...)
		buf = append(buf, e.lastIKey...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], e.offset)]...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], e.size)]...)
	}
	if _, err := b.w.Write(buf); err != nil {
		return err
	}
	indexLen := uint64(b.w.Offset()) - indexOff

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], indexOff)
	binary.LittleEndian.PutUint64(footer[8:16], indexLen)
	binary.LittleEndian.PutUint64(footer[16:24], filterOff)
	binary.LittleEndian.PutUint64(footer[24:32], filterLen)
	magic := uint64(Magic)
	if b.opts.Compression {
		magic = MagicCompressed
	}
	binary.LittleEndian.PutUint64(footer[32:40], magic)
	if _, err := b.w.Write(footer[:]); err != nil {
		return err
	}
	b.w.Sync()
	if b.opts.Stats != nil {
		b.opts.Stats.Add(stats.SerializeNs, int64(time.Since(start)))
	}
	return nil
}
