package core

import "errors"

// Operation is an entry point the compatibility table can refuse.
type Operation int

const (
	OpOpen    Operation = iota
	OpRecover           // Recover, and OpenImage through it
	OpSnapshot
	OpCheckpoint
	numOperations
)

// features is what a row's predicate reads: one engine's options, and the
// two features above one engine that the shard router and miodb pass in.
type features struct {
	Options
	shards   int
	governed bool
}

// compatTable is the one place a feature combination is refused: one row
// per feature as the options spell it, refusing an operation when its
// predicate holds and it has an error for that operation. A row with no
// error is supported everywhere, and TestCompatibilityTable tortures it.
// DESIGN.md §7 shows the table; a test keeps the two equal.
var compatTable = []struct {
	feature string
	on      func(f features, op Operation) bool
	refuse  [numOperations]error
}{
	{"SSD", func(f features, _ Operation) bool { return f.SSD != nil }, [numOperations]error{
		OpRecover:    errors.New("miodb: SSD mode (UseSSD) cannot be restored or crash-recovered: images and recovery cover the NVM state only"),
		OpSnapshot:   ErrSnapshotUnsupported,
		OpCheckpoint: errors.New("miodb: cannot checkpoint an SSD-mode store: images capture the NVM state only (the SSD-resident repository would be lost)"),
	}},
	{"ValueLog", func(f features, _ Operation) bool { return f.ValueLog != nil }, [numOperations]error{}},
	{"ValueLog.OnSSD", func(f features, _ Operation) bool { return f.ValueLog != nil && f.ValueLog.OnSSD }, [numOperations]error{
		OpOpen:    errOnSSDRemoved,
		OpRecover: errOnSSDRemoved,
	}},
	{"DisableWAL", func(f features, _ Operation) bool { return f.DisableWAL }, [numOperations]error{}},
	{"Shards", func(f features, _ Operation) bool { return f.shards > 1 }, [numOperations]error{}},
	// A governor rebalances one budget across shards, so it needs two; an
	// image holds no governor state, so a restore runs without one.
	{"Governor", func(f features, op Operation) bool { return f.governed && (op != OpOpen || f.shards < 2) }, [numOperations]error{
		OpOpen:    errors.New("miodb: Governor requires Shards ≥ 2: rebalancing one global budget needs more than one shard (use MemoryBudget alone to size a single engine)"),
		OpRecover: errors.New("miodb: cannot restore with a Governor: a restored store runs with a static split of MemoryBudget"),
	}},
	{"DisableZeroCopyMerge", func(f features, _ Operation) bool { return f.DisableZeroCopyMerge }, [numOperations]error{}},
	{"DisableOnePieceFlush", func(f features, _ Operation) bool { return f.DisableOnePieceFlush }, [numOperations]error{}},
	{"DisableParallelCompaction", func(f features, _ Operation) bool { return f.DisableParallelCompaction }, [numOperations]error{}},
	{"BloomBitsPerKey < 0", func(f features, _ Operation) bool { return f.BloomBitsPerKey < 0 }, [numOperations]error{}},
}

// errOnSSDRemoved refuses ValueLog.OnSSD wherever a store comes into
// being; no store can hold an SSD-resident value log, so no other
// operation meets one.
var errOnSSDRemoved = errors.New("miodb: ValueLog.OnSSD is no longer supported: the SSD-resident value log was removed and every segment lives in NVM")

// Refusal returns the table's error for op on a store with these options,
// run as shards engines and, if governed, under the memory governor; nil
// when op supports every feature in play. Entry points call it once, never
// per read or write.
func Refusal(op Operation, opts Options, shards int, governed bool) error {
	f := features{Options: opts, shards: shards, governed: governed}
	for _, r := range compatTable {
		if err := r.refuse[op]; err != nil && r.on(f, op) {
			return err
		}
	}
	return nil
}
