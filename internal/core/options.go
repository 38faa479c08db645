// Package core implements the MioDB engine: the paper's elastic multi-level
// PMTable buffer over a DRAM write buffer and a huge bottom-level
// repository, with one-piece flushing, zero-copy + lazy-copy compaction,
// per-level parallel compaction threads, bloom-filtered reads, write-ahead
// logging, and crash recovery. See DESIGN.md for the system map.
package core

import (
	"miodb/internal/lsm"
	"miodb/internal/nvm"
	"miodb/internal/vfs"
)

// Options configures a DB. The zero value is usable: defaults reproduce
// the paper's configuration scaled by 1/1000 (64 KB memtables standing in
// for 64 MB, 8 elastic-buffer levels, 16 bloom bits per key).
type Options struct {
	// MemTableSize is the DRAM buffer's soft capacity before rotation.
	MemTableSize int64
	// ChunkSize is the arena chunk size and bounds the largest entry.
	ChunkSize int
	// Levels is the number of elastic-buffer levels n (L0..L(n-1)); the
	// repository below them is Ln. The paper settles on 8 (Fig 9).
	Levels int
	// BloomBitsPerKey and FilterCapacity size the fixed, mergeable
	// per-PMTable bloom filters (§4.6). A negative BloomBitsPerKey
	// disables filtering entirely (the read-optimization ablation).
	BloomBitsPerKey int
	FilterCapacity  int

	// DisableWAL turns off write-ahead logging (benchmark ablation).
	DisableWAL bool

	// DisableParallelCompaction serves every level from a single
	// round-robin compaction goroutine instead of one per level (§4.5) —
	// the ablation Fig 9 contrasts with.
	DisableParallelCompaction bool

	// DisableZeroCopyMerge makes elastic-buffer merges physically copy
	// nodes instead of relinking them (ablation: what the elastic buffer
	// would cost without byte addressability).
	DisableZeroCopyMerge bool

	// DisableOnePieceFlush makes the flusher copy entries one by one into
	// a fresh NVM skip list instead of flushing the whole arena (§4.2) —
	// the NoveLSM-style flush the paper's Fig 12 compares against.
	DisableOnePieceFlush bool

	// SSD enables the DRAM-NVM-SSD hierarchy (§5.4): the repository is
	// replaced by leveled SSTables on a simulated SSD.
	SSD *SSDOptions

	// ValueLog enables key-value separation (DESIGN.md §14): values at or
	// above the threshold are appended to a segmented value log and the
	// LSM structure stores 16-byte addresses in their place, so flushes
	// and compactions move pointers instead of value bytes. nil keeps the
	// engine byte-for-byte value-inline.
	ValueLog *ValueLogOptions

	// Simulate enables device latency injection (benchmarks); unit tests
	// leave it off.
	Simulate bool
	// TimeScale scales injected latencies (1.0 = full model).
	TimeScale float64
}

// ValueLogOptions configures key-value separation.
type ValueLogOptions struct {
	// Threshold is the minimum value size (bytes) separated into the log;
	// smaller values stay inline. Default 1 KiB.
	Threshold int
	// SegmentSize is the soft capacity of one log segment (an oversized
	// value gets a dedicated segment). Default 4× MemTableSize.
	SegmentSize int
	// GCDeadRatio is the dead-space fraction at which a sealed segment is
	// garbage-collected (live values relocated, segment reclaimed).
	// Default 0.5.
	GCDeadRatio float64
	// OnSSD places segments on the simulated SSD tier instead of NVM —
	// the large-value offload arm. Checkpoint images and crash recovery
	// do not cover SSD-resident segments.
	OnSSD bool
}

// SSDOptions configures the SSD tier.
type SSDOptions struct {
	// Disk is the simulated SSD; if nil one is created with SSDProfile.
	Disk *vfs.Disk
	// LSM tunes the on-SSD leveled tree.
	LSM lsm.Options
}

func (o Options) withDefaults() Options {
	if o.MemTableSize <= 0 {
		o.MemTableSize = 64 << 10
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 256 << 10
	}
	if o.ChunkSize < int(o.MemTableSize/4) {
		// Keep clone-based flushing efficient: a memtable arena should
		// span only a handful of chunks, so a ChunkSize under a quarter
		// of the memtable snaps up to the full MemTableSize. Note the
		// snap changes arena granularity for *everything* sharing the
		// space (WAL regions, repository chunks), not just the memtable.
		//
		// This clamp is also what makes dynamic memtable sizing sound:
		// ChunkSize is fixed for the life of the DB, so a resized target
		// must never exceed what the fixed chunk size can serve.
		// Post-defaults ChunkSize ≥ MemTableSize/4 always holds, which
		// guarantees SetMemTableTarget's cap of maxArenaChunks (4) ×
		// ChunkSize is at least the configured MemTableSize — the
		// governor can grow a shard back to (and beyond) its static
		// size in every legal configuration. See memtarget.go and
		// TestChunkSizeInvariant.
		o.ChunkSize = int(o.MemTableSize)
	}
	if o.Levels <= 0 {
		o.Levels = 8
	}
	if o.Levels < 2 {
		o.Levels = 2
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 16
	}
	if o.FilterCapacity <= 0 {
		o.FilterCapacity = 1 << 14
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if o.ValueLog != nil {
		// Clone: defaulting must never mutate a literal shared across shards.
		vc := *o.ValueLog
		if vc.Threshold <= 0 {
			vc.Threshold = 1 << 10
		}
		if vc.SegmentSize <= 0 {
			vc.SegmentSize = int(o.MemTableSize) * 4
		}
		if vc.GCDeadRatio <= 0 {
			vc.GCDeadRatio = 0.5
		}
		o.ValueLog = &vc
	}
	return o
}

// devices bundles the memory devices of one store instance.
type devices struct {
	dram *nvm.Device
	nvm  *nvm.Device
}
