// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5). It provides:
//
//   - a uniform store factory over MioDB and the three baselines, with the
//     paper's configuration scaled 1/1000 (DESIGN.md §1);
//   - db_bench-style micro-benchmark runners (fillseq/fillrandom/
//     readseq/readrandom) and a YCSB driver;
//   - one experiment function per paper table/figure, each printing the
//     rows/series the paper reports (see experiments.go and DESIGN.md §3).
package bench

import (
	"flag"
	"fmt"

	"miodb/internal/baseline/leveldbkv"
	"miodb/internal/baseline/matrixkv"
	"miodb/internal/baseline/novelsm"
	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/lsm"
	"miodb/internal/shard"
	"miodb/internal/vfs"
)

// StoreKind names one of the systems under comparison.
type StoreKind string

// The comparison set of §5.
const (
	MioDB        StoreKind = "miodb"
	LevelDB      StoreKind = "leveldb"
	NoveLSM      StoreKind = "novelsm"
	NoveLSMNoSST StoreKind = "novelsm-nosst"
	NoveLSMHier  StoreKind = "novelsm-hier"
	MatrixKV     StoreKind = "matrixkv"
)

// Config is the shared store configuration; zero fields take the paper's
// scaled defaults.
type Config struct {
	Kind StoreKind

	// MemTableSize is the DRAM buffer (paper 64 MB → 64 KB).
	MemTableSize int64
	// NVMBufferSize is NoveLSM's NVM memtable / MatrixKV's container
	// budget (paper 4–8 GB → 4–8 MB).
	NVMBufferSize int64
	// Levels is MioDB's elastic-buffer depth (paper default 8).
	Levels int
	// Shards hash-partitions MioDB over this many independent engines
	// (0/1 = the single-engine path; baselines ignore it).
	Shards int
	// SSD switches the block tier to the SSD profile (the §5.4
	// DRAM-NVM-SSD hierarchy); otherwise baselines keep SSTables on
	// NVM-as-block and MioDB uses the in-NVM repository.
	SSD bool
	// Simulate enables the device latency models (on for benchmarks).
	Simulate bool
	// TimeScale scales injected latencies.
	TimeScale float64

	// ValueLog enables MioDB's key-value separation (nil = value-inline;
	// OpenStore refuses it for the baselines).
	ValueLog *core.ValueLogOptions

	// MemoryBudget is the sharded MioDB store's global memtable budget:
	// each shard starts at MemoryBudget/Shards (overriding MemTableSize).
	// 0 keeps the per-shard MemTableSize semantics.
	MemoryBudget int64
	// Governor enables adaptive rebalancing of the budget across shards
	// (nil = static split; requires Shards > 1). The membalance
	// experiment compares the two at equal total memory.
	Governor *shard.GovernorOptions

	// MioDB ablation switches (zero = paper defaults).
	DisableParallelCompaction bool
	DisableZeroCopyMerge      bool
	DisableOnePieceFlush      bool
	DisableBloom              bool
	DisableWAL                bool
}

// StoreFlags registers on fs the store flags that miodb-bench, miodb-ycsb
// and miodb-server share: -store, -shards, -ssd, -memory_budget,
// -governor and the two value-log flags. The returned function, called
// after fs is parsed, builds their Config; it refuses -shards below 1.
// The memtable size and the latency models stay with each tool.
func StoreFlags(fs *flag.FlagSet) func() (Config, error) {
	var (
		store    = fs.String("store", "miodb", "store: miodb | leveldb | novelsm | novelsm-nosst | novelsm-hier | matrixkv")
		shards   = fs.Int("shards", 1, "miodb shard count (hash-partitioned engines; 1 = single engine)")
		ssd      = fs.Bool("ssd", false, "use the DRAM-NVM-SSD hierarchy")
		budget   = fs.Int64("memory_budget", 0, "global memtable budget in bytes split across shards (0 = the per-shard memtable size)")
		governor = fs.Bool("governor", false, "adaptively rebalance the memtable budget across shards by write heat (requires -shards > 1)")
		valueLog = fs.Bool("value_log", false, "miodb key-value separation: append large values to a value log, store 16-byte pointers in the LSM")
		valueThr = fs.Int("value_threshold", 0, "minimum value size in bytes routed to the value log (0 = default 1024; implies -value_log)")
	)
	return func() (Config, error) {
		if *shards < 1 {
			return Config{}, fmt.Errorf("-shards %d: must be >= 1 (1 = single engine)", *shards)
		}
		cfg := Config{Kind: StoreKind(*store), Shards: *shards, SSD: *ssd, MemoryBudget: *budget}
		if *governor {
			cfg.Governor = &shard.GovernorOptions{}
		}
		if *valueLog || *valueThr > 0 {
			cfg.ValueLog = &core.ValueLogOptions{Threshold: *valueThr}
		}
		return cfg, nil
	}
}

func (c Config) withDefaults() Config {
	if c.MemTableSize <= 0 {
		c.MemTableSize = 64 << 10
	}
	if c.NVMBufferSize <= 0 {
		if c.Kind == MatrixKV {
			c.NVMBufferSize = 8 << 20
		} else {
			c.NVMBufferSize = 4 << 20
		}
	}
	if c.Levels <= 0 {
		c.Levels = 8
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	return c
}

// Store extends kvstore.Store with the counter reset the harness uses
// between load and measure phases.
type Store interface {
	kvstore.Store
	ResetCounters()
}

// miodbStore adapts core.DB to the harness interface.
type miodbStore struct{ *core.DB }

func (s miodbStore) Flush() error { return s.DB.FlushAll() }

// lsmOptions builds the shared leveled-tree configuration (64 KB tables,
// 10× fanout — the paper's "64 MB SSTables with an amplification factor
// of 10", scaled).
func lsmOptions() lsm.Options {
	return lsm.Options{
		TableSize: 64 << 10,
		L1Size:    640 << 10,
		Fanout:    10,
		NumLevels: 7,
	}
}

func (c Config) disk() *vfs.Disk {
	if c.SSD {
		return vfs.NewDisk(vfs.SSDProfile())
	}
	return vfs.NewDisk(vfs.NVMBlockProfile())
}

// OpenStore builds the requested system.
func OpenStore(c Config) (Store, error) {
	c = c.withDefaults()
	if c.ValueLog != nil && c.Kind != MioDB {
		// Only MioDB has a value log; refuse up front rather than
		// silently benchmarking an arm that isn't there.
		return nil, fmt.Errorf("bench: store kind %q does not support key-value separation (ValueLog)", c.Kind)
	}
	switch c.Kind {
	case MioDB:
		opts := core.Options{
			MemTableSize:              c.MemTableSize,
			Levels:                    c.Levels,
			Simulate:                  c.Simulate,
			TimeScale:                 c.TimeScale,
			DisableParallelCompaction: c.DisableParallelCompaction,
			DisableZeroCopyMerge:      c.DisableZeroCopyMerge,
			DisableOnePieceFlush:      c.DisableOnePieceFlush,
			DisableWAL:                c.DisableWAL,
			ValueLog:                  c.ValueLog,
		}
		if c.DisableBloom {
			opts.BloomBitsPerKey = -1
		}
		if c.SSD {
			// Each shard's engine builds a disk of its own.
			opts.SSD = &core.SSDOptions{LSM: lsmOptions()}
		}
		// A Governor goes to the router even with one shard, where the
		// compatibility table refuses it.
		if c.Shards > 1 || c.Governor != nil {
			if c.Governor != nil {
				g := *c.Governor
				if g.Budget == 0 {
					g.Budget = c.MemoryBudget
				}
				return shard.OpenGoverned(c.Shards, opts, &g)
			}
			if c.MemoryBudget > 0 {
				opts.MemTableSize = shard.SplitBudget(c.MemoryBudget, c.Shards)
			}
			return shard.Open(c.Shards, opts)
		}
		if c.MemoryBudget > 0 {
			opts.MemTableSize = c.MemoryBudget
		}
		db, err := core.Open(opts)
		if err != nil {
			return nil, err
		}
		return miodbStore{db}, nil

	case LevelDB:
		return leveldbkv.Open(leveldbkv.Options{
			MemTableSize: c.MemTableSize,
			Disk:         c.disk(),
			LSM:          lsmOptions(),
			Simulate:     c.Simulate,
			TimeScale:    c.TimeScale,
			DisableWAL:   c.DisableWAL,
		})

	case NoveLSM:
		return novelsm.Open(novelsm.Options{
			MemTableSize:  c.MemTableSize,
			NVMBufferSize: c.NVMBufferSize,
			Disk:          c.disk(),
			LSM:           lsmOptions(),
			Simulate:      c.Simulate,
			TimeScale:     c.TimeScale,
			DisableWAL:    c.DisableWAL,
		})

	case NoveLSMNoSST:
		return novelsm.Open(novelsm.Options{
			MemTableSize:  c.MemTableSize,
			NVMBufferSize: c.NVMBufferSize,
			NoSST:         true,
			Simulate:      c.Simulate,
			TimeScale:     c.TimeScale,
			DisableWAL:    c.DisableWAL,
		})

	case NoveLSMHier:
		return novelsm.Open(novelsm.Options{
			MemTableSize:  c.MemTableSize,
			NVMBufferSize: c.NVMBufferSize,
			Hierarchical:  true,
			Disk:          c.disk(),
			LSM:           lsmOptions(),
			Simulate:      c.Simulate,
			TimeScale:     c.TimeScale,
			DisableWAL:    c.DisableWAL,
		})

	case MatrixKV:
		return matrixkv.Open(matrixkv.Options{
			MemTableSize:  c.MemTableSize,
			NVMBufferSize: c.NVMBufferSize,
			Disk:          c.disk(),
			LSM:           lsmOptions(),
			Simulate:      c.Simulate,
			TimeScale:     c.TimeScale,
			DisableWAL:    c.DisableWAL,
		})
	}
	return nil, fmt.Errorf("bench: unknown store kind %q", c.Kind)
}
