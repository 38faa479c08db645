package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"miodb/internal/bloom"
	"miodb/internal/histogram"
	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/pmtable"
	"miodb/internal/server"
	"miodb/internal/skiplist"
	"miodb/internal/stats"
	"miodb/internal/wal"
)

// The probes time the leaf layers — the ones the in-order replay reaches
// only through another layer — in tight loops over the workload's own
// keys, one figure per call. They are components of the replay's
// figures (memtable.Add is a skip-list insert plus an arena alloc), so
// the ledger shows them beside the in-order layers and never adds both.

var sink uint64 // keeps probe results alive

// perCall times n calls of fn as one block.
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// heapDelta reports Go heap bytes and objects allocated by fn.
func heapDelta(fn func()) (bytes, objects float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m1.Mallocs - m0.Mallocs)
}

// probeKeys picks the key ids the probes loop over: the stream's own, so
// the access pattern (uniform or zipfian) is the workload's.
func probeKeys(stream []op, n int) []uint32 {
	if len(stream) < n {
		n = len(stream)
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = stream[i].id
	}
	return ids
}

func (r *replayer) probes(stream []op) (map[string]float64, error) {
	out := map[string]float64{}
	ids := probeKeys(stream, 20000)
	n := len(ids)
	key := func(i int) []byte { return r.ks.key(ids[i%n]) }
	// What a memtable entry holds: the value, or the 16-byte pointer.
	entry := make([]byte, r.s.valueLen)
	if r.vl != nil {
		entry = entry[:16]
	}
	perTable := int(r.memSize) / (keyLen + len(entry) + 40)
	if perTable > n {
		perTable = n
	}

	out["keys.compare_ns"] = perCall(n, func(i int) {
		sink += uint64(keys.Compare(key(i), uint64(i), key(i+1), uint64(i+1)))
	})

	region := r.nvmDev.NewRegion(r.chunk)
	var allocErr error
	out["vaddr.alloc_ns"] = perCall(n, func(int) {
		if _, err := region.Alloc(keyLen + len(entry) + 40); err != nil {
			allocErr = err
		}
	})
	r.nvmDev.Release(region)
	if allocErr != nil {
		return nil, fmt.Errorf("vaddr alloc: %w", allocErr)
	}

	// Skip lists and memtables are probed at the size a memtable reaches
	// before it rotates, not at the probe count: depth is what a search costs.
	var insertNs, getNs, nextNs, lists float64
	for base := 0; base+perTable <= n; base += perTable {
		home := r.dram.NewRegion(r.chunk)
		list, err := skiplist.New(home)
		if err != nil {
			return nil, err
		}
		insertNs += perCall(perTable, func(i int) {
			if err := list.Insert(key(base+i), entry, uint64(base+i+1), keys.KindSet); err != nil {
				allocErr = err
			}
		})
		getNs += perCall(perTable, func(i int) {
			if _, _, _, ok := list.Get(key(base + i)); ok {
				sink++
			}
		})
		it := list.NewIterator()
		it.SeekToFirst()
		nextNs += perCall(perTable, func(int) {
			if it.Valid() {
				it.Next()
			}
		})
		lists++
		r.dram.Release(home)
	}
	if lists > 0 {
		out["skiplist.insert_ns"] = insertNs / lists
		out["skiplist.get_ns"] = getNs / lists
		out["skiplist.iter_next_ns"] = nextNs / lists
	}

	mt, err := memtable.New(r.dram, r.memSize, r.chunk)
	if err != nil {
		return nil, err
	}
	_, objects := heapDelta(func() {
		for i := 0; i < perTable; i++ {
			if err := mt.Add(key(i), entry, uint64(i+1), keys.KindSet); err != nil {
				allocErr = err
			}
		}
	})
	out["memtable.allocs_per_add"] = objects / float64(perTable)
	mt.Release()

	log := wal.New(r.nvmDev, r.chunk)
	heapBytes, _ := heapDelta(func() {
		for i := 0; i < perTable; i++ {
			if err := log.Append(key(i), entry, uint64(i+1), keys.KindSet); err != nil {
				allocErr = err
			}
		}
	})
	out["wal.append_b_per_op"] = heapBytes / float64(perTable)
	out["wal.bytes_per_user_byte"] = float64(log.Bytes()) / float64(perTable*(keyLen+len(entry)))
	var replayed int
	t0 := time.Now()
	if _, err := log.Replay(func(_, _ []byte, _ uint64, _ keys.Kind) error { replayed++; return nil }); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	if replayed != perTable {
		r.fail.add("wal replay returned %d records of %d appended", replayed, perTable)
	}
	out["wal.replay_ns_per_rec"] = float64(time.Since(t0)) / float64(replayed)
	log.Release()

	// The batch form is what a group commit of 32 riders pays per record.
	const batch = 32
	log = wal.New(r.nvmDev, r.chunk)
	recs := make([]wal.Record, batch)
	batches := perTable / batch
	out["wal.append_batch_ns_per_rec"] = perCall(batches, func(b int) {
		for j := range recs {
			i := b*batch + j
			recs[j] = wal.Record{Key: key(i), Value: entry, Seq: uint64(i + 1), Kind: keys.KindSet}
		}
		if err := log.AppendBatch(recs); err != nil {
			allocErr = err
		}
	}) / batch
	log.Release()

	filter := bloom.New(r.fp.ExpectedKeys, r.fp.BitsPerKey)
	out["bloom.add_ns"] = perCall(n, func(i int) { filter.Add(key(i)) })
	out["bloom.probe_ns"] = perCall(n, func(i int) {
		if filter.MayContain(key(i)) {
			sink++
		}
	})

	h := histogram.New()
	out["histogram.record_ns"] = perCall(n, func(i int) { h.Record(time.Duration(500 + i%4096)) })
	rec := &stats.Recorder{}
	for i := 0; i < n; i++ {
		rec.RecordOp(stats.OpPut, time.Duration(500+i%4096))
	}
	out["stats.snapshot_us"] = perCall(200, func(int) { sink += uint64(rec.Snapshot().Puts) }) / 1e3

	// The settled table with the most entries stands for "a table in a level".
	var big *pmtable.Table
	r.tables(func(t *pmtable.Table) bool {
		if big == nil || t.Count() > big.Count() {
			big = t
		}
		return true
	})
	if big != nil {
		it := big.NewSafeIterator()
		it.SeekToFirst()
		steps := int(big.Count())
		if steps > n {
			steps = n
		}
		out["pmtable.safeiter_next_ns"] = perCall(steps, func(int) {
			if it.Valid() {
				it.Next()
			}
		})
	}

	// The k-way heap without the visibility filter on top.
	var steps int
	var nextTotal time.Duration
	for i := 0; i < n/r.scanLen/4; i++ {
		m := iterx.NewMerging(r.sources()...)
		m.Seek(key(i))
		t0 := time.Now()
		for j := 0; j < r.scanLen && m.Valid(); j++ {
			m.Next()
			steps++
		}
		nextTotal += time.Since(t0)
	}
	if steps > 0 {
		out["iterx.merge_next_ns"] = float64(nextTotal) / float64(steps)
	}
	if allocErr != nil {
		return nil, allocErr
	}
	return out, nil
}

// wireProbes times the request encoder and the response decoder on a
// frame captured off a live connection to the stub store, and counts the
// heap objects one client round trip allocates.
func wireProbes(t *trial) (map[string]float64, error) {
	out := map[string]float64{}
	s := t.spec
	value := make([]byte, s.valueLen)
	w, err := dialWire(noopStore{value}, 1)
	if err != nil {
		return nil, err
	}
	defer w.close()
	key := t.ks.key(0)

	nc, err := net.Dial("tcp", w.addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	frame := server.AppendTaggedRequest(append([]byte(nil), server.MagicV2[:]...), 1, server.OpGet, key, nil)
	if _, err := nc.Write(frame); err != nil {
		return nil, err
	}
	var captured bytes.Buffer
	if _, status, _, err := server.ReadTaggedResponse(io.TeeReader(nc, &captured)); err != nil || status != server.StatusOK {
		return nil, fmt.Errorf("capture response: status %d: %v", status, err)
	}

	const n = 20000
	buf := make([]byte, 0, 256+s.valueLen)
	out["server.codec_encode_ns"] = perCall(n, func(i int) {
		buf = server.AppendTaggedRequest(buf[:0], uint64(i), server.OpPut, key, value)
	})
	rd := bytes.NewReader(nil)
	var decodeErr error
	out["server.codec_decode_ns"] = perCall(n, func(int) {
		rd.Reset(captured.Bytes())
		if _, _, _, err := server.ReadTaggedResponse(rd); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("decode captured response: %w", decodeErr)
	}

	conn := w.conns[0]
	var rtErr error
	_, objects := heapDelta(func() {
		for i := 0; i < 2000; i++ {
			if err := conn.Put(key, value); err != nil {
				rtErr = err
			}
		}
	})
	if rtErr != nil {
		return nil, fmt.Errorf("client round trip: %w", rtErr)
	}
	out["client.allocs_per_op"] = objects / 2000
	return out, nil
}
