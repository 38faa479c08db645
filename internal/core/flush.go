package core

import (
	"fmt"
	"time"

	"miodb/internal/pmtable"
)

// flushOne one-piece-flushes the oldest immutable memtable h into a new
// L0 PMTable; the flush job drains the queue oldest-first.
//
// Timeline per memtable (§4.2): bulk arena copy to NVM + background
// pointer swizzling, both inside pmtable.Flush; the table's bloom filter
// is the memtable's own, filled as the entries were committed. The
// memtable keeps serving reads until the version without it drains; only
// then are its DRAM arena and WAL region released.
//
// A persistent device or manifest failure degrades the store; the
// flushed-but-unreleased state is intentionally leaked so the last
// recoverable manifest image stays self-consistent.
func (db *DB) flushOne(h *memHandle) error {
	start := time.Now()

	// Gate the whole one-piece transfer on the device up front: the bulk
	// copy and pointer swizzling inside pmtable.Flush are raw memory
	// operations with no failure seam of their own.
	if err := db.gateNVMWrite(int(h.mt.ApproximateBytes())); err != nil {
		return fmt.Errorf("device: %w", err)
	}

	var table *pmtable.Table
	if db.opts.DisableOnePieceFlush {
		// Ablation: copy entries one by one into a fresh NVM skip list —
		// each insert pays an NVM-resident position search plus a copy,
		// the cost profile Fig 12 attributes to NoveLSM/MatrixKV. The
		// filter is the memtable's here too: the arms differ in the copy.
		t, err := pmtable.Build(db.nvm, db.opts.ChunkSize, h.mt.NewIterator(), db.tableID.Add(1), db.fp, h.mt.Filter())
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		t.MinSeq, t.MaxSeq = h.minSeq, h.maxSeq
		table = t
	} else {
		table = pmtable.Flush(db.nvm, h.mt, db.tableID.Add(1), h.minSeq, h.maxSeq, db.fp)
	}
	db.st.AddFlush(time.Since(start), h.mt.ApproximateBytes())

	db.mu.Lock()
	mt, log := h.mt, h.log
	db.editVersionLocked(func(v *version) {
		// Retire the flushed memtable and publish the L0 table (L0 is
		// newest-first).
		v.imms = v.imms[:len(v.imms)-1]
		v.levels[0] = append([]levelEntry{tableEntry{table}}, v.levels[0]...)
	})
	var walRegion uint32
	if log != nil {
		walRegion = log.Region().Index()
	}
	if err := db.logFlushDoneLocked(tableToState(table), walRegion, log != nil, h.rangeDels); err != nil {
		// The manifest still references the WAL region (and recovery
		// would replay it): leak memtable and log rather than release
		// state the recoverable image depends on.
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	// Only now — with the retirement durably logged — may the memtable
	// arena and WAL region be queued for release once every reader
	// version referencing them drains. Appending to the current version's
	// queue is safe here: releaseFns mutate only under db.mu while the
	// version is current, and retired versions' queues are frozen.
	db.queueReleaseLocked(func() {
		mt.Release()
		if log != nil {
			log.Release()
		}
	})
	db.mu.Unlock()
	return nil
}
