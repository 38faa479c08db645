// Package stats defines the cost accounting shared by every store in the
// repository: the quantities the paper's Table 1 reports (interval stalls,
// cumulative stalls, deserialization time, flushing time, write
// amplification) plus general throughput counters.
package stats

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"miodb/internal/histogram"
)

// Op identifies an operation type for per-op latency accounting.
type Op int

// The op types with their own latency distribution. OpCommit measures
// whole Write/WriteBatch commits (one sample per batch), while OpPut and
// OpDelete measure per-record commit latency — each record in a group
// commit experienced the group's latency, including queue wait.
const (
	OpPut Op = iota
	OpGet
	OpDelete
	OpScan
	OpCommit
	NumOps
)

// String names the op the way bench output and the server stats op do.
func (op Op) String() string {
	switch op {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpCommit:
		return "commit"
	}
	return "unknown"
}

// opStripes spreads each op's histogram over several mutexes so the
// lock-free read path does not re-acquire one global lock per Get just to
// record its latency (the same trick as core's epoch slots). Must be a
// power of two.
const opStripes = 4

// Recorder accumulates cost metrics. All methods are safe for concurrent
// use; stores share one Recorder across their foreground and background
// goroutines.
type Recorder struct {
	// Interval stalls: time the write path was fully blocked waiting for
	// a flush or compaction (the client-visible stall, §3.1).
	intervalStallNs atomic.Int64
	intervalStalls  atomic.Int64
	// Cumulative stalls: the sum of intentional short write delays
	// injected to slow writers down (L0 slowdown throttling).
	cumulativeStallNs atomic.Int64
	// Serialization: CPU+copy time converting memtables to on-"disk"
	// formats (SSTable builds, matrix rows).
	serializeNs atomic.Int64
	// Deserialization: time decoding on-"disk" formats on the read path.
	deserializeNs atomic.Int64
	// Flushing: wall time of memtable flushes, and flush volume.
	flushNs    atomic.Int64
	flushBytes atomic.Int64
	flushes    atomic.Int64
	// Compaction work time across all background threads.
	compactionNs atomic.Int64
	compactions  atomic.Int64
	// User-written payload bytes (key+value), the denominator of WA.
	userBytes atomic.Int64
	// Operation counts.
	puts, gets, deletes, scans atomic.Int64
	// Commits and the records they carried. groupedWrites / writeGroups
	// is the mean batch size; > 1 means records shared WAL appends.
	writeGroups   atomic.Int64
	groupedWrites atomic.Int64
	// Robustness: transparently retried transient device errors, and
	// background failures that latched the store into degraded mode.
	deviceRetries    atomic.Int64
	backgroundErrors atomic.Int64
	// Version reclamation: snapshots freed by the epoch (or refcount)
	// sweep — the lock-free read path's grace-period machinery at work.
	versionsSwept atomic.Int64
	// Memtable rotations: full DRAM buffers moved into the immutable
	// queue (makeRoomForWrite or a forced flush). Together with userBytes
	// and the flush counters this is the write-heat signal the memory
	// governor samples (see Heat).
	rotations atomic.Int64
	// Per-op-type service latency, striped to keep Record cheap on the
	// concurrent read path. Zero-value histograms, no constructor needed.
	opLat [NumOps][opStripes]histogram.Histogram
}

// RecordOp adds one latency sample for the given op type.
func (r *Recorder) RecordOp(op Op, d time.Duration) { r.RecordOpN(op, d, 1) }

// RecordOpN adds n samples of the same latency for op — the commit
// path charges every record in a batch with the batch's measured latency
// in one call.
func (r *Recorder) RecordOpN(op Op, d time.Duration, n int64) {
	if n <= 0 || op < 0 || op >= NumOps {
		return
	}
	r.opLat[op][rand.Uint32()&(opStripes-1)].RecordN(d, n)
}

// AddIntervalStall records a full write-path block of duration d.
func (r *Recorder) AddIntervalStall(d time.Duration) {
	r.intervalStallNs.Add(int64(d))
	r.intervalStalls.Add(1)
}

// AddCumulativeStall records an intentional write slowdown of duration d.
func (r *Recorder) AddCumulativeStall(d time.Duration) {
	r.cumulativeStallNs.Add(int64(d))
}

// AddSerialize records serialization work time.
func (r *Recorder) AddSerialize(d time.Duration) { r.serializeNs.Add(int64(d)) }

// AddDeserialize records deserialization work time.
func (r *Recorder) AddDeserialize(d time.Duration) { r.deserializeNs.Add(int64(d)) }

// AddFlush records one memtable flush of the given duration and volume.
func (r *Recorder) AddFlush(d time.Duration, bytes int64) {
	r.flushNs.Add(int64(d))
	r.flushBytes.Add(bytes)
	r.flushes.Add(1)
}

// AddCompaction records one compaction work unit.
func (r *Recorder) AddCompaction(d time.Duration) {
	r.compactionNs.Add(int64(d))
	r.compactions.Add(1)
}

// AddUserBytes accumulates user payload written (the WA denominator).
func (r *Recorder) AddUserBytes(n int64) { r.userBytes.Add(n) }

// AddUserBytesAndCount combines the user-byte charge with the put/delete
// tally for write paths.
func (r *Recorder) AddUserBytesAndCount(n int64, isDelete bool) {
	r.userBytes.Add(n)
	if isDelete {
		r.deletes.Add(1)
	} else {
		r.puts.Add(1)
	}
}

// CountPut tallies one write operation.
func (r *Recorder) CountPut() { r.puts.Add(1) }

// CountGet tallies one point lookup.
func (r *Recorder) CountGet() { r.gets.Add(1) }

// CountDelete tallies one delete.
func (r *Recorder) CountDelete() { r.deletes.Add(1) }

// CountScan tallies one range scan.
func (r *Recorder) CountScan() { r.scans.Add(1) }

// CountPuts tallies n write operations in one step (one commit).
func (r *Recorder) CountPuts(n int64) {
	if n != 0 {
		r.puts.Add(n)
	}
}

// CountDeletes tallies n deletes in one step (one commit).
func (r *Recorder) CountDeletes(n int64) {
	if n != 0 {
		r.deletes.Add(n)
	}
}

// AddWriteGroup records one commit carrying n writes.
func (r *Recorder) AddWriteGroup(n int) {
	r.writeGroups.Add(1)
	r.groupedWrites.Add(int64(n))
}

// AddDeviceRetry records one transparently retried transient device error.
func (r *Recorder) AddDeviceRetry() { r.deviceRetries.Add(1) }

// CountBackgroundError records a background failure that degraded the store.
func (r *Recorder) CountBackgroundError() { r.backgroundErrors.Add(1) }

// CountVersionSwept records one version snapshot freed by the reclamation
// sweep after its reader grace period elapsed.
func (r *Recorder) CountVersionSwept() { r.versionsSwept.Add(1) }

// CountRotation records one memtable rotation into the immutable queue.
func (r *Recorder) CountRotation() { r.rotations.Add(1) }

// Heat is the cheap write-pressure sample the memory governor polls every
// tick: cumulative counters only, no histogram merges or device reads (a
// full Snapshot per shard per tick would dominate a millisecond-scale
// governor interval). Callers diff consecutive samples with Delta to get
// per-interval rates.
type Heat struct {
	// UserBytes is cumulative user payload written (key+value).
	UserBytes int64
	// Flushes / FlushBytes count completed memtable flushes and their
	// volume.
	Flushes    int64
	FlushBytes int64
	// Rotations counts memtables rotated into the immutable queue; the
	// per-interval rotation rate is the most direct "this shard's buffer
	// is too small" signal.
	Rotations int64
}

// Heat samples the recorder's write-pressure counters.
func (r *Recorder) Heat() Heat {
	return Heat{
		UserBytes:  r.userBytes.Load(),
		Flushes:    r.flushes.Load(),
		FlushBytes: r.flushBytes.Load(),
		Rotations:  r.rotations.Load(),
	}
}

// Delta returns the per-interval heat between prev (the older sample) and
// h. Counters only grow, except across ResetCounters — a negative delta
// is clamped to zero so a mid-run reset reads as "idle", not as a huge
// negative rate.
func (h Heat) Delta(prev Heat) Heat {
	return Heat{
		UserBytes:  clampNonNeg(h.UserBytes - prev.UserBytes),
		Flushes:    clampNonNeg(h.Flushes - prev.Flushes),
		FlushBytes: clampNonNeg(h.FlushBytes - prev.FlushBytes),
		Rotations:  clampNonNeg(h.Rotations - prev.Rotations),
	}
}

func clampNonNeg(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// Reset zeroes every counter atomically, field by field. Unlike a struct
// copy (`*r = Recorder{}`), it is safe while other goroutines are
// concurrently updating the recorder: each atomic is stored individually,
// so no atomic word is ever written with a plain (racy) copy.
func (r *Recorder) Reset() {
	r.intervalStallNs.Store(0)
	r.intervalStalls.Store(0)
	r.cumulativeStallNs.Store(0)
	r.serializeNs.Store(0)
	r.deserializeNs.Store(0)
	r.flushNs.Store(0)
	r.flushBytes.Store(0)
	r.flushes.Store(0)
	r.compactionNs.Store(0)
	r.compactions.Store(0)
	r.userBytes.Store(0)
	r.puts.Store(0)
	r.gets.Store(0)
	r.deletes.Store(0)
	r.scans.Store(0)
	r.writeGroups.Store(0)
	r.groupedWrites.Store(0)
	r.deviceRetries.Store(0)
	r.backgroundErrors.Store(0)
	r.versionsSwept.Store(0)
	r.rotations.Store(0)
	for op := range r.opLat {
		for i := range r.opLat[op] {
			r.opLat[op][i].Reset()
		}
	}
}

// DeviceCounters mirrors a device's traffic in a snapshot.
type DeviceCounters struct {
	Name                    string
	BytesRead, BytesWritten int64
}

// BloomLevelCounters is one elastic-buffer level's read-path accounting:
// how often the level's filters were consulted, how many list searches
// they saved, and the measured (not theoretical) false-positive cost.
// Every point probe counts: Gets, and the value-log collector's liveness
// check of each entry it walks, which probes through the same code.
type BloomLevelCounters struct {
	Level int
	// Probes counts tables whose filter was consulted for a point probe.
	Probes int64
	// Skips counts probes the filter answered "definitely absent" for.
	Skips int64
	// FalsePositives counts probes that passed the filter but found no
	// key in the table — each one paid a wasted NVM list search.
	FalsePositives int64
	// Hits counts point probes satisfied at this level.
	Hits int64
	// FalsePositiveRate is FalsePositives over the probes that passed the
	// filter (Probes − Skips); 0 when no probe passed.
	FalsePositiveRate float64
}

// Snapshot is a point-in-time copy of every metric, in the units the
// paper's tables use.
type Snapshot struct {
	IntervalStall    time.Duration
	IntervalStalls   int64
	CumulativeStall  time.Duration
	SerializeTime    time.Duration
	DeserializeTime  time.Duration
	FlushTime        time.Duration
	FlushBytes       int64
	Flushes          int64
	CompactionTime   time.Duration
	Compactions      int64
	UserBytesWritten int64
	Puts, Gets       int64
	Deletes, Scans   int64
	// Rotations counts memtables rotated into the immutable queue — the
	// write-heat signal behind the adaptive memory governor.
	Rotations int64

	// Memory-governor gauges (attached by the store via AttachMemory):
	// the active memtable's dynamic capacity target and its current fill.
	// On an aggregated snapshot both are sums across shards, so
	// MemTableTargetBytes tracks how the governor has divided its global
	// budget.
	MemTableTargetBytes int64
	MemTableUsedBytes   int64

	// WriteGroups counts commits (one per Put, Delete, DeleteRange or
	// batch); GroupedWrites counts the records they carried. MeanGroupSize
	// is their ratio (0 when no groups): the mean batch size.
	WriteGroups   int64
	GroupedWrites int64
	MeanGroupSize float64

	// DeviceRetries counts transient device errors absorbed by retry;
	// BackgroundErrors counts failures that degraded the store.
	DeviceRetries    int64
	BackgroundErrors int64

	// Read-path observability (attached by the store via AttachReadPath):
	// per-level bloom-filter counters plus their totals, and the version
	// chain gauge behind the lock-free read path.
	BloomLevels         []BloomLevelCounters
	BloomProbes         int64
	BloomSkips          int64
	BloomFalsePositives int64
	// BloomFalsePositiveRate is the measured FP rate across all levels:
	// false positives over probes that passed the filter.
	BloomFalsePositiveRate float64
	// LiveVersions is the version chain's length (oldest through current);
	// PendingReleases counts releaseFns queued on retired versions still
	// inside their reader grace period; ReadEpoch is the global reclamation
	// epoch; VersionsSwept counts snapshots freed by the sweep.
	LiveVersions    int64
	PendingReleases int64
	ReadEpoch       uint64
	VersionsSwept   int64

	// OpLatencies holds the per-op-type service latency distribution,
	// indexed by Op (OpLatencies[OpGet].P999 is the Get tail), measured
	// inside the engine so every front end — bench, server stats op,
	// experiment harness — reports the same numbers.
	OpLatencies [NumOps]histogram.Snapshot

	// Write-path backlog gauges (attached by the store via AttachBacklog):
	// the elastic buffer's instantaneous debt. PendingImms counts rotated
	// memtables awaiting flush (the queue makeRoomForWrite grows without
	// bound when flushing falls behind) and PendingImmBytes their payload;
	// L0Tables/L0Bytes measure the flush output the compactor hasn't
	// merged down yet.
	PendingImms     int64
	PendingImmBytes int64
	L0Tables        int64
	L0Bytes         int64

	// Devices lists per-device traffic; WriteAmplification is total
	// persistent-device write traffic ÷ user bytes.
	Devices            []DeviceCounters
	WriteAmplification float64

	// ValueLog describes the key-value-separation value log (attached by
	// the store via AttachValueLog; zero when separation is off).
	ValueLog ValueLogCounters

	// Shards holds the per-shard breakdown when this snapshot aggregates
	// a hash-partitioned store (see Aggregate); nil for single-engine
	// stores. Counters in the parent snapshot are sums across shards,
	// stall durations are maxima (shards stall in parallel, so the sum
	// would overstate wall-clock impact).
	Shards []Snapshot
}

// ValueLogCounters is the value log's accounting: segment population,
// live-vs-dead bytes, append traffic, and GC work (relocations and
// reclaimed segments). DeadRatio is dead bytes over total segment bytes.
type ValueLogCounters struct {
	Enabled             bool
	Segments            int64
	SegmentBytes        int64
	LiveBytes           int64
	DeadRatio           float64
	Appends             int64
	AppendedBytes       int64
	GCRelocations       int64
	GCRelocatedBytes    int64
	GCSegmentsReclaimed int64
	GCReclaimedBytes    int64
}

// AttachValueLog fills the snapshot's value-log section.
func (s *Snapshot) AttachValueLog(v ValueLogCounters) {
	if v.SegmentBytes > 0 {
		v.DeadRatio = float64(v.SegmentBytes-v.LiveBytes) / float64(v.SegmentBytes)
	}
	s.ValueLog = v
}

// Aggregate combines per-shard snapshots into one store-level snapshot:
// counters and byte totals are summed, stall/work durations that overlap
// in wall time are taken as maxima (IntervalStall, CumulativeStall) while
// background work times are summed (they measure CPU spent, not
// wall-clock), per-level bloom counters are summed level-wise, device
// traffic is merged by device name, and derived rates (write
// amplification, mean group size, bloom FP rates) are recomputed from the
// combined totals. The inputs are retained in the result's Shards slice.
func Aggregate(shards []Snapshot) Snapshot {
	var out Snapshot
	if len(shards) == 0 {
		return out
	}
	devIndex := map[string]int{}
	var levels []BloomLevelCounters
	for _, s := range shards {
		if s.IntervalStall > out.IntervalStall {
			out.IntervalStall = s.IntervalStall
		}
		if s.CumulativeStall > out.CumulativeStall {
			out.CumulativeStall = s.CumulativeStall
		}
		out.IntervalStalls += s.IntervalStalls
		out.SerializeTime += s.SerializeTime
		out.DeserializeTime += s.DeserializeTime
		out.FlushTime += s.FlushTime
		out.FlushBytes += s.FlushBytes
		out.Flushes += s.Flushes
		out.CompactionTime += s.CompactionTime
		out.Compactions += s.Compactions
		out.UserBytesWritten += s.UserBytesWritten
		out.Puts += s.Puts
		out.Gets += s.Gets
		out.Deletes += s.Deletes
		out.Scans += s.Scans
		out.WriteGroups += s.WriteGroups
		out.GroupedWrites += s.GroupedWrites
		out.DeviceRetries += s.DeviceRetries
		out.BackgroundErrors += s.BackgroundErrors
		out.BloomProbes += s.BloomProbes
		out.BloomSkips += s.BloomSkips
		out.BloomFalsePositives += s.BloomFalsePositives
		out.LiveVersions += s.LiveVersions
		out.PendingReleases += s.PendingReleases
		out.VersionsSwept += s.VersionsSwept
		out.PendingImms += s.PendingImms
		out.PendingImmBytes += s.PendingImmBytes
		out.L0Tables += s.L0Tables
		out.L0Bytes += s.L0Bytes
		out.Rotations += s.Rotations
		out.MemTableTargetBytes += s.MemTableTargetBytes
		out.MemTableUsedBytes += s.MemTableUsedBytes
		if s.ReadEpoch > out.ReadEpoch {
			out.ReadEpoch = s.ReadEpoch
		}
		for op := range s.OpLatencies {
			out.OpLatencies[op] = out.OpLatencies[op].Merge(s.OpLatencies[op])
		}
		for _, l := range s.BloomLevels {
			for len(levels) <= l.Level {
				levels = append(levels, BloomLevelCounters{Level: len(levels)})
			}
			dst := &levels[l.Level]
			dst.Probes += l.Probes
			dst.Skips += l.Skips
			dst.FalsePositives += l.FalsePositives
			dst.Hits += l.Hits
		}
		for _, d := range s.Devices {
			i, ok := devIndex[d.Name]
			if !ok {
				i = len(out.Devices)
				devIndex[d.Name] = i
				out.Devices = append(out.Devices, DeviceCounters{Name: d.Name})
			}
			out.Devices[i].BytesRead += d.BytesRead
			out.Devices[i].BytesWritten += d.BytesWritten
		}
		if s.ValueLog.Enabled {
			out.ValueLog.Enabled = true
		}
		out.ValueLog.Segments += s.ValueLog.Segments
		out.ValueLog.SegmentBytes += s.ValueLog.SegmentBytes
		out.ValueLog.LiveBytes += s.ValueLog.LiveBytes
		out.ValueLog.Appends += s.ValueLog.Appends
		out.ValueLog.AppendedBytes += s.ValueLog.AppendedBytes
		out.ValueLog.GCRelocations += s.ValueLog.GCRelocations
		out.ValueLog.GCRelocatedBytes += s.ValueLog.GCRelocatedBytes
		out.ValueLog.GCSegmentsReclaimed += s.ValueLog.GCSegmentsReclaimed
		out.ValueLog.GCReclaimedBytes += s.ValueLog.GCReclaimedBytes
	}
	if out.ValueLog.SegmentBytes > 0 {
		out.ValueLog.DeadRatio = float64(out.ValueLog.SegmentBytes-out.ValueLog.LiveBytes) / float64(out.ValueLog.SegmentBytes)
	}
	for i := range levels {
		l := &levels[i]
		if passed := l.Probes - l.Skips; passed > 0 {
			l.FalsePositiveRate = float64(l.FalsePositives) / float64(passed)
		}
	}
	out.BloomLevels = levels
	if passed := out.BloomProbes - out.BloomSkips; passed > 0 {
		out.BloomFalsePositiveRate = float64(out.BloomFalsePositives) / float64(passed)
	}
	if out.WriteGroups > 0 {
		out.MeanGroupSize = float64(out.GroupedWrites) / float64(out.WriteGroups)
	}
	// Recompute WA over the persistent devices only — by convention the
	// per-shard snapshots list the volatile "dram" device first and
	// persistent devices after it (see core.DB.Stats).
	var written int64
	for _, d := range out.Devices {
		if d.Name != "dram" {
			written += d.BytesWritten
		}
	}
	if out.UserBytesWritten > 0 {
		out.WriteAmplification = float64(written) / float64(out.UserBytesWritten)
	}
	out.Shards = append([]Snapshot(nil), shards...)
	return out
}

// Snapshot captures the recorder. Device traffic and WA are attached by
// the store, which knows its devices.
func (r *Recorder) Snapshot() Snapshot {
	groups := r.writeGroups.Load()
	grouped := r.groupedWrites.Load()
	mean := 0.0
	if groups > 0 {
		mean = float64(grouped) / float64(groups)
	}
	var lat [NumOps]histogram.Snapshot
	for op := range r.opLat {
		for i := range r.opLat[op] {
			lat[op] = lat[op].Merge(r.opLat[op][i].Snapshot())
		}
	}
	return Snapshot{
		OpLatencies:      lat,
		WriteGroups:      groups,
		GroupedWrites:    grouped,
		MeanGroupSize:    mean,
		DeviceRetries:    r.deviceRetries.Load(),
		BackgroundErrors: r.backgroundErrors.Load(),
		VersionsSwept:    r.versionsSwept.Load(),
		IntervalStall:    time.Duration(r.intervalStallNs.Load()),
		IntervalStalls:   r.intervalStalls.Load(),
		CumulativeStall:  time.Duration(r.cumulativeStallNs.Load()),
		SerializeTime:    time.Duration(r.serializeNs.Load()),
		DeserializeTime:  time.Duration(r.deserializeNs.Load()),
		FlushTime:        time.Duration(r.flushNs.Load()),
		FlushBytes:       r.flushBytes.Load(),
		Flushes:          r.flushes.Load(),
		CompactionTime:   time.Duration(r.compactionNs.Load()),
		Compactions:      r.compactions.Load(),
		UserBytesWritten: r.userBytes.Load(),
		Puts:             r.puts.Load(),
		Gets:             r.gets.Load(),
		Deletes:          r.deletes.Load(),
		Scans:            r.scans.Load(),
		Rotations:        r.rotations.Load(),
	}
}

// AttachReadPath fills the snapshot's read-path observability: per-level
// bloom counters (with per-level and aggregate measured FP rates) and the
// version-chain gauge.
func (s *Snapshot) AttachReadPath(levels []BloomLevelCounters, liveVersions, pendingReleases int64, epoch uint64) {
	s.BloomLevels = levels
	for i := range levels {
		l := &levels[i]
		if passed := l.Probes - l.Skips; passed > 0 {
			l.FalsePositiveRate = float64(l.FalsePositives) / float64(passed)
		}
		s.BloomProbes += l.Probes
		s.BloomSkips += l.Skips
		s.BloomFalsePositives += l.FalsePositives
	}
	if passed := s.BloomProbes - s.BloomSkips; passed > 0 {
		s.BloomFalsePositiveRate = float64(s.BloomFalsePositives) / float64(passed)
	}
	s.LiveVersions = liveVersions
	s.PendingReleases = pendingReleases
	s.ReadEpoch = epoch
}

// AttachBacklog fills the snapshot's write-path backlog gauges; the store
// reads them off its current version (imms queue + level 0).
func (s *Snapshot) AttachBacklog(imms, immBytes, l0Tables, l0Bytes int64) {
	s.PendingImms = imms
	s.PendingImmBytes = immBytes
	s.L0Tables = l0Tables
	s.L0Bytes = l0Bytes
}

// AttachMemory fills the snapshot's memory-governor gauges: the active
// memtable's dynamic capacity target and its current fill in bytes.
func (s *Snapshot) AttachMemory(targetBytes, usedBytes int64) {
	s.MemTableTargetBytes = targetBytes
	s.MemTableUsedBytes = usedBytes
}

// AttachDevices fills the snapshot's device traffic and computes write
// amplification over the given persistent devices' write bytes.
func (s *Snapshot) AttachDevices(devs ...DeviceCounters) {
	s.Devices = append(s.Devices, devs...)
	var written int64
	for _, d := range devs {
		written += d.BytesWritten
	}
	if s.UserBytesWritten > 0 {
		s.WriteAmplification = float64(written) / float64(s.UserBytesWritten)
	}
}
