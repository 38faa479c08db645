// Package wal implements the write-ahead log MioDB keeps in NVM (§4.7):
// every KV update is appended to a persistent log before it is inserted
// into the DRAM MemTable, so the volatile buffer can always be rebuilt
// after a crash. One log instance covers one MemTable; when the memtable's
// one-piece flush completes, the log's arena is released in one shot.
//
// Record framing inside the NVM arena:
//
//	[ crc32(IEEE) uint32 | payloadLen uint32 ]  — 8-byte header
//	[ seq uint64 | kind uint8 | keyLen uint32 | key... | value... ]
//
// Records are bump-allocated; a record that would run past the backing of
// its chunk is placed at the next chunk start (the allocator's rule, see
// vaddr.Region), and the replay cursor reproduces that rule. A log may
// live on a short-grain region — the store sizes each memtable's log like
// the memtable — and a restored image backs the same chunks in full with
// zeros past the old backing end; either way a zero header or a header
// that does not fit before the backing end sends the cursor to the next
// chunk. Fresh chunks are zero-filled, so a zero header terminates replay;
// the CRC catches partial records.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

const headerSize = 8

// Log is a write-ahead log in one NVM arena. Appends must be externally
// serialized (the store's write path already is).
type Log struct {
	dev    *nvm.Device
	region *vaddr.Region
	count  int64
	bytes  int64
	buf    []byte // reused encode buffer

	// poisoned latches once a failed append left a torn prefix on the
	// media: replay stops at that garbage record, so any further append
	// would be unreachable after a crash. Callers must stop appending
	// (rotate the log or degrade) once the log is poisoned.
	poisoned bool
}

// New creates a log on the device. chunkSize bounds the largest record
// (key+value+17 bytes of framing).
func New(dev *nvm.Device, chunkSize int) *Log {
	return &Log{dev: dev, region: dev.NewRegion(chunkSize)}
}

// Attach wraps a region as a log, fresh or recovered: appends go to its
// end and Replay reads it from the start.
func Attach(dev *nvm.Device, region *vaddr.Region) *Log {
	return &Log{dev: dev, region: region}
}

// Region returns the backing arena (persisted in the superblock so
// recovery can find it).
func (l *Log) Region() *vaddr.Region { return l.region }

// Count returns the number of records appended or replayed.
func (l *Log) Count() int64 { return l.count }

// Bytes returns the log's total appended bytes including framing.
func (l *Log) Bytes() int64 { return l.bytes }

// Poisoned reports whether a failed append left an unreadable torn
// record on the media, making further appends unrecoverable.
func (l *Log) Poisoned() bool { return l.poisoned }

// Record is one update inside a batched append.
type Record struct {
	Key, Value []byte
	Seq        uint64
	Kind       keys.Kind
}

// recordTotal returns the framed (unaligned) size of one record.
func recordTotal(key, value []byte) int {
	return headerSize + 8 + 1 + 4 + len(key) + len(value)
}

// encodeRecord frames one record into b (which must hold recordTotal
// bytes) and returns the framed size.
func encodeRecord(b []byte, key, value []byte, seq uint64, kind keys.Kind) int {
	payload := 8 + 1 + 4 + len(key) + len(value)
	total := headerSize + payload
	binary.LittleEndian.PutUint32(b[4:8], uint32(payload))
	binary.LittleEndian.PutUint64(b[8:16], seq)
	b[16] = byte(kind)
	binary.LittleEndian.PutUint32(b[17:21], uint32(len(key)))
	copy(b[21:], key)
	copy(b[21+len(key):], value)
	binary.LittleEndian.PutUint32(b[0:4], crc32.ChecksumIEEE(b[8:total]))
	return total
}

// Append durably logs one update: the one-record case of AppendBatch,
// charged to the NVM device as a single sequential append — the cheap,
// sequential half of the paper's "insertion of KV pairs that often incurs
// random memory accesses can be performed in the fast DRAM".
func (l *Log) Append(key, value []byte, seq uint64, kind keys.Kind) error {
	rec := [1]Record{{Key: key, Value: value, Seq: seq, Kind: kind}}
	return l.AppendBatch(rec[:])
}

// tear persists the first torn bytes of the encoded records b (an injected
// torn write) and poisons the log. torn <= 0 persists nothing and leaves
// the log clean: a fully-lost append is retryable.
func (l *Log) tear(b []byte, torn int) {
	if torn <= 0 {
		return
	}
	if torn > len(b) {
		torn = len(b)
	}
	if addr, err := l.region.Alloc(len(b)); err == nil {
		l.region.Write(addr, b[:torn])
	}
	l.poisoned = true
}

// AppendBatch durably logs a group of updates — the WAL half of group
// commit. All records of a run that fits the backing of the current arena
// chunk are framed into one encode buffer and written with a single
// region write, so the NVM device is charged one sequential append (one
// per-operation latency) for the whole run instead of one per record.
// Groups larger than that are split at the backing end, exactly where the
// bump allocator would split them anyway.
//
// The resulting bytes do not depend on how the records are grouped: the
// same per-record framing, the same 8-byte alignment between records, and
// the same padding-to-next-chunk rule for records that would straddle a
// boundary. Replay cannot distinguish groupings (all-or-prefix per group:
// a torn tail still truncates at the first bad CRC). Only the charge
// differs: a run also writes the alignment gaps between its records,
// never the one after its last, so a batch of one is exactly Append.
func (l *Log) AppendBatch(recs []Record) error {
	if l.poisoned {
		return fmt.Errorf("wal: log poisoned by earlier torn append")
	}
	chunk := int64(l.region.ChunkSize())
	i := 0
	for i < len(recs) {
		first := int64(recordTotal(recs[i].Key, recs[i].Value))
		if first > chunk {
			return fmt.Errorf("wal: record of %d bytes exceeds max %d", first, chunk)
		}
		run, unaligned := alignUp8(first), first
		j := i + 1
		if j < len(recs) {
			// Extend the run greedily while aligned records keep fitting
			// the room left in the backing of the chunk the run lands in.
			// If the first record does not fit it, the allocator opens a
			// chunk at the next stride backed by the grain, or by the
			// record if that is larger. A run of one skips this: Alloc
			// places a lone record by the same rule.
			off := l.region.Size()
			room := l.region.ChunkEnd(off) - off
			if run > room {
				room = max(int64(l.region.Grain()), run)
			}
			for j < len(recs) {
				t := int64(recordTotal(recs[j].Key, recs[j].Value))
				if t > chunk {
					return fmt.Errorf("wal: record of %d bytes exceeds max %d", t, chunk)
				}
				at := alignUp8(t)
				if run+at > room {
					break
				}
				run += at
				unaligned += t
				j++
			}
		}

		// One encode pass, one allocation, one device write for the run.
		// The write stops at the last record's end: its alignment pad is
		// allocated and, like every fresh arena byte, already zero.
		if cap(l.buf) < int(run) {
			l.buf = make([]byte, run)
		}
		b := l.buf[:run]
		pos, end := int64(0), int64(0)
		for k := i; k < j; k++ {
			end = pos + int64(encodeRecord(b[pos:], recs[k].Key, recs[k].Value, recs[k].Seq, recs[k].Kind))
			pos = alignUp8(end)
			clear(b[end:pos]) // alignment gaps must read back as zero padding
		}
		b = b[:end]
		// The fault gate checks the aligned run, so a byte-budget crash
		// trigger tears at the same media offset whatever the grouping.
		if out := l.dev.CheckWrite(int(run)); out.Err != nil {
			l.tear(b, out.Torn)
			return fmt.Errorf("wal: append: %w", out.Err)
		}
		addr, err := l.region.Alloc(int(run))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.region.Write(addr, b)
		l.count += int64(j - i)
		l.bytes += unaligned
		i = j
	}
	return nil
}

func alignUp8(n int64) int64 { return (n + 7) &^ 7 }

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Records and Bytes count the intact records delivered to fn and
	// their framed (unaligned) sizes.
	Records, Bytes int64
	// TornTail is true when replay stopped at a damaged record — a CRC
	// mismatch or a malformed/truncated header, the signature of a write
	// interrupted mid-record — rather than at a clean zero-header EOF.
	// Either way the prefix before the stop point is the recovered log.
	TornTail bool
}

// Replay invokes fn for every intact record in order. It stops at the
// first zero header (end of log) or CRC mismatch (torn tail write), which
// is the standard recovery contract: a torn final record is discarded.
// The returned stats distinguish the two stop reasons.
//
// Replay is read-only and idempotent: it does not touch the log's
// Count/Bytes counters, so a retried replay (e.g. after a mid-replay
// error) observes the same log it saw the first time.
func (l *Log) Replay(fn func(key, value []byte, seq uint64, kind keys.Kind) error) (ReplayStats, error) {
	var st ReplayStats
	chunk := int64(l.region.ChunkSize())
	off := int64(0)
	if l.region.Index() == 0 {
		off = 8 // region 0 reserves the nil-address word
	}
	size := l.region.Size()
	for {
		if off+headerSize > size {
			return st, nil
		}
		// Reproduce the allocator's rule: a header that does not fit
		// before the chunk's backing end means the record was placed at
		// the next chunk.
		end := l.region.ChunkEnd(off)
		if off+headerSize > end {
			off = (off/chunk + 1) * chunk
			continue
		}
		hdr := l.region.Read(l.region.Base().Add(off), headerSize)
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		payloadLen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if crc == 0 && payloadLen == 0 {
			// Zero header: either end of log, or straddle padding —
			// retry once from the next chunk boundary.
			next := (off/chunk + 1) * chunk
			if next == off {
				return st, nil
			}
			if next+headerSize > size {
				return st, nil
			}
			nh := l.region.Read(l.region.Base().Add(next), headerSize)
			if binary.LittleEndian.Uint32(nh[0:4]) == 0 && binary.LittleEndian.Uint32(nh[4:8]) == 0 {
				return st, nil
			}
			off = next
			continue
		}
		total := headerSize + payloadLen
		if payloadLen < 13 || off+total > end || off+total > size {
			st.TornTail = true // malformed tail: interrupted mid-record
			return st, nil
		}
		payload := l.region.Read(l.region.Base().Add(off+headerSize), int(payloadLen))
		if crc32.ChecksumIEEE(payload) != crc {
			st.TornTail = true // torn write at the tail
			return st, nil
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		kind := keys.Kind(payload[8])
		keyLen := int64(binary.LittleEndian.Uint32(payload[9:13]))
		if 13+keyLen > payloadLen {
			st.TornTail = true
			return st, nil
		}
		key := payload[13 : 13+keyLen]
		value := payload[13+keyLen:]
		if err := fn(key, value, seq, kind); err != nil {
			return st, err
		}
		st.Records++
		st.Bytes += total
		off += (total + 7) &^ 7
	}
}

// Release frees the log's arena after its MemTable has been durably
// flushed to a PMTable.
func (l *Log) Release() {
	l.dev.Release(l.region)
}
