// Package stats defines the cost accounting shared by every store in the
// repository: the quantities the paper's Table 1 reports (interval stalls,
// cumulative stalls, deserialization time, flushing time, write
// amplification) plus general throughput counters.
package stats

import (
	"fmt"
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

// Counter names one cumulative counter of the Recorder. Each is the source
// of one Snapshot field, through its row of fields.
type Counter int

// The counters. Stall and work times are in nanoseconds.
const (
	// IntervalStallNs and IntervalStalls: the write path fully blocked
	// waiting for a flush or compaction (the client-visible stall, §3.1).
	IntervalStallNs Counter = iota
	IntervalStalls
	// CumulativeStallNs: intentional short write delays injected to slow
	// writers down (L0 slowdown throttling).
	CumulativeStallNs
	// SerializeNs: CPU+copy time converting memtables to on-"disk" formats
	// (SSTable builds, matrix rows); DeserializeNs: decoding them on the
	// read path.
	SerializeNs
	DeserializeNs
	// Memtable flushes: wall time, volume and count.
	FlushNs
	FlushBytes
	Flushes
	// Compaction work time across all background threads, and work units.
	CompactionNs
	Compactions
	// UserBytes is the user payload written (key+value), the WA denominator.
	UserBytes
	Puts
	Gets
	Deletes
	Scans
	// Rotations counts full DRAM buffers moved into the immutable queue;
	// with UserBytes and the flush counters it is the write heat the memory
	// governor samples (see Heat).
	Rotations
	// WriteGroups counts commits and GroupedWrites the records they carried.
	WriteGroups
	GroupedWrites
	// DeviceRetries counts transparently retried transient device errors,
	// BackgroundErrors background failures that degraded the store.
	DeviceRetries
	BackgroundErrors
	// VersionsSwept counts version snapshots freed by the reclamation sweep
	// after their reader grace period.
	VersionsSwept
	numCounters
)

// Recorder accumulates cost metrics. All methods are safe for concurrent
// use; stores share one Recorder across their foreground and background
// goroutines.
type Recorder struct {
	c [numCounters]atomic.Int64
	// Per-op-type service latency, striped to keep Record cheap on the
	// concurrent read path. Zero-value histograms, no constructor needed.
	opLat [NumOps][opStripes]histogram.Histogram
}

// Add adds n to counter c. A zero n touches nothing, so a commit without
// deletes does not write the delete counter's cache line.
func (r *Recorder) Add(c Counter, n int64) {
	if n != 0 {
		r.c[c].Add(n)
	}
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
	r.Add(IntervalStallNs, int64(d))
	r.Add(IntervalStalls, 1)
}

// AddFlush records one memtable flush of the given duration and volume.
func (r *Recorder) AddFlush(d time.Duration, bytes int64) {
	r.Add(FlushNs, int64(d))
	r.Add(FlushBytes, bytes)
	r.Add(Flushes, 1)
}

// AddCompaction records one compaction work unit.
func (r *Recorder) AddCompaction(d time.Duration) {
	r.Add(CompactionNs, int64(d))
	r.Add(Compactions, 1)
}

// AddWriteGroup records one commit carrying n writes.
func (r *Recorder) AddWriteGroup(n int) {
	r.Add(WriteGroups, 1)
	r.Add(GroupedWrites, int64(n))
}

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
		UserBytes:  r.c[UserBytes].Load(),
		Flushes:    r.c[Flushes].Load(),
		FlushBytes: r.c[FlushBytes].Load(),
		Rotations:  r.c[Rotations].Load(),
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

// Reset zeroes every counter and histogram, each atomically on its own.
// Unlike a struct copy (`*r = Recorder{}`), it is safe while other
// goroutines are concurrently updating the recorder: no atomic word is ever
// written with a plain (racy) copy.
func (r *Recorder) Reset() {
	for i := range r.c {
		r.c[i].Store(0)
	}
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
// paper's tables use. Every integer field has one row in fields, which
// Recorder.Snapshot, Aggregate and String read; the float rates are
// computed from the totals by Derive. The store sets the gauges and the
// structured parts (levels, devices, value log) itself.
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

	// Memory-governor gauges: the active memtable's dynamic capacity target and its current fill.
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

	// Read-path observability: per-level bloom-filter counters plus their totals, and the version
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

	// Write-path backlog gauges: the elastic buffer's instantaneous debt. PendingImms counts rotated
	// memtables awaiting flush (the queue makeRoomForWrite grows without
	// bound when flushing falls behind) and PendingImmBytes their payload;
	// L0Tables/L0Bytes measure the flush output the compactor hasn't
	// merged down yet.
	PendingImms     int64
	PendingImmBytes int64
	L0Tables        int64
	L0Bytes         int64

	// Devices lists per-device traffic; WriteAmplification is the write
	// traffic of every device but the volatile "dram" ÷ user bytes.
	Devices            []DeviceCounters
	WriteAmplification float64

	// ValueLog describes the key-value-separation value log (zero when
	// separation is off).
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

// rule is how a field combines across shards.
type rule uint8

const (
	sum  rule = iota // counts, bytes and CPU work add up
	peak             // wall-clock stalls overlap across shards, and the epoch is a clock: the largest
)

// noCounter marks a row whose value the store sets rather than the recorder.
const noCounter = numCounters

// field is one integer field of Snapshot: its key in String's text, its
// cross-shard rule, its source counter (noCounter for a gauge) and its
// accessors.
type field struct {
	key string
	agg rule
	src Counter
	get func(*Snapshot) int64
	set func(*Snapshot, int64)
}

func row[T ~int64 | ~uint64](key string, agg rule, src Counter, p func(*Snapshot) *T) field {
	return field{key, agg, src,
		func(s *Snapshot) int64 { return int64(*p(s)) },
		func(s *Snapshot, v int64) { *p(s) = T(v) }}
}

// fields is the table every scalar reader walks.
var fields = [...]field{
	row("puts", sum, Puts, func(s *Snapshot) *int64 { return &s.Puts }),
	row("gets", sum, Gets, func(s *Snapshot) *int64 { return &s.Gets }),
	row("deletes", sum, Deletes, func(s *Snapshot) *int64 { return &s.Deletes }),
	row("scans", sum, Scans, func(s *Snapshot) *int64 { return &s.Scans }),
	row("user_bytes", sum, UserBytes, func(s *Snapshot) *int64 { return &s.UserBytesWritten }),
	row("interval_stall_ns", peak, IntervalStallNs, func(s *Snapshot) *time.Duration { return &s.IntervalStall }),
	row("interval_stalls", sum, IntervalStalls, func(s *Snapshot) *int64 { return &s.IntervalStalls }),
	row("cumulative_stall_ns", peak, CumulativeStallNs, func(s *Snapshot) *time.Duration { return &s.CumulativeStall }),
	row("serialize_ns", sum, SerializeNs, func(s *Snapshot) *time.Duration { return &s.SerializeTime }),
	row("deserialize_ns", sum, DeserializeNs, func(s *Snapshot) *time.Duration { return &s.DeserializeTime }),
	row("flush_ns", sum, FlushNs, func(s *Snapshot) *time.Duration { return &s.FlushTime }),
	row("flush_bytes", sum, FlushBytes, func(s *Snapshot) *int64 { return &s.FlushBytes }),
	row("flushes", sum, Flushes, func(s *Snapshot) *int64 { return &s.Flushes }),
	row("compaction_ns", sum, CompactionNs, func(s *Snapshot) *time.Duration { return &s.CompactionTime }),
	row("compactions", sum, Compactions, func(s *Snapshot) *int64 { return &s.Compactions }),
	row("rotations", sum, Rotations, func(s *Snapshot) *int64 { return &s.Rotations }),
	row("write_groups", sum, WriteGroups, func(s *Snapshot) *int64 { return &s.WriteGroups }),
	row("grouped_writes", sum, GroupedWrites, func(s *Snapshot) *int64 { return &s.GroupedWrites }),
	row("device_retries", sum, DeviceRetries, func(s *Snapshot) *int64 { return &s.DeviceRetries }),
	row("background_errors", sum, BackgroundErrors, func(s *Snapshot) *int64 { return &s.BackgroundErrors }),
	row("versions_swept", sum, VersionsSwept, func(s *Snapshot) *int64 { return &s.VersionsSwept }),
	row("memtable_target_bytes", sum, noCounter, func(s *Snapshot) *int64 { return &s.MemTableTargetBytes }),
	row("memtable_used_bytes", sum, noCounter, func(s *Snapshot) *int64 { return &s.MemTableUsedBytes }),
	row("bloom_probes", sum, noCounter, func(s *Snapshot) *int64 { return &s.BloomProbes }),
	row("bloom_skips", sum, noCounter, func(s *Snapshot) *int64 { return &s.BloomSkips }),
	row("bloom_fps", sum, noCounter, func(s *Snapshot) *int64 { return &s.BloomFalsePositives }),
	row("live_versions", sum, noCounter, func(s *Snapshot) *int64 { return &s.LiveVersions }),
	row("pending_releases", sum, noCounter, func(s *Snapshot) *int64 { return &s.PendingReleases }),
	row("read_epoch", peak, noCounter, func(s *Snapshot) *uint64 { return &s.ReadEpoch }),
	row("pending_imms", sum, noCounter, func(s *Snapshot) *int64 { return &s.PendingImms }),
	row("pending_imm_bytes", sum, noCounter, func(s *Snapshot) *int64 { return &s.PendingImmBytes }),
	row("l0_tables", sum, noCounter, func(s *Snapshot) *int64 { return &s.L0Tables }),
	row("l0_bytes", sum, noCounter, func(s *Snapshot) *int64 { return &s.L0Bytes }),
}

// Snapshot captures the recorder's counters and latency distributions. The
// store sets the gauges, devices and levels, then calls Derive.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	for op := range r.opLat {
		for i := range r.opLat[op] {
			s.OpLatencies[op] = s.OpLatencies[op].Merge(r.opLat[op][i].Snapshot())
		}
	}
	for _, f := range fields {
		if f.src != noCounter {
			f.set(&s, r.c[f.src].Load())
		}
	}
	return s
}

// Aggregate combines per-shard snapshots into one store-level snapshot:
// each field of the table by its rule, latency distributions merged,
// bloom counters level by level, device traffic by device name and the
// value log summed; Derive then recomputes the rates from the combined
// totals. The inputs are retained in the result's Shards slice.
func Aggregate(shards []Snapshot) Snapshot {
	var out Snapshot
	if len(shards) == 0 {
		return out
	}
	devIndex := map[string]int{}
	for _, s := range shards {
		for _, f := range fields {
			if v, o := f.get(&s), f.get(&out); f.agg == sum {
				f.set(&out, o+v)
			} else if v > o {
				f.set(&out, v)
			}
		}
		for op := range s.OpLatencies {
			out.OpLatencies[op] = out.OpLatencies[op].Merge(s.OpLatencies[op])
		}
		for _, l := range s.BloomLevels {
			for len(out.BloomLevels) <= l.Level {
				out.BloomLevels = append(out.BloomLevels, BloomLevelCounters{Level: len(out.BloomLevels)})
			}
			dst := &out.BloomLevels[l.Level]
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
		v, o := s.ValueLog, &out.ValueLog
		o.Enabled = o.Enabled || v.Enabled
		o.Segments += v.Segments
		o.SegmentBytes += v.SegmentBytes
		o.LiveBytes += v.LiveBytes
		o.Appends += v.Appends
		o.AppendedBytes += v.AppendedBytes
		o.GCRelocations += v.GCRelocations
		o.GCRelocatedBytes += v.GCRelocatedBytes
		o.GCSegmentsReclaimed += v.GCSegmentsReclaimed
		o.GCReclaimedBytes += v.GCReclaimedBytes
	}
	out.Derive()
	out.Shards = append([]Snapshot(nil), shards...)
	return out
}

// Derive computes the snapshot's rates from its totals, by one rule for
// one engine and for an aggregate of many: the mean group size, each
// level's and the total bloom false-positive rate (false positives over
// the probes that passed the filter), write amplification (the bytes
// written to every device but the volatile "dram" over user bytes) and the
// value log's dead ratio. A rate with a zero denominator is 0.
func (s *Snapshot) Derive() {
	s.MeanGroupSize = ratio(s.GroupedWrites, s.WriteGroups)
	for i := range s.BloomLevels {
		l := &s.BloomLevels[i]
		l.FalsePositiveRate = ratio(l.FalsePositives, l.Probes-l.Skips)
	}
	s.BloomFalsePositiveRate = ratio(s.BloomFalsePositives, s.BloomProbes-s.BloomSkips)
	var written int64
	for _, d := range s.Devices {
		if d.Name != "dram" {
			written += d.BytesWritten
		}
	}
	s.WriteAmplification = ratio(written, s.UserBytesWritten)
	s.ValueLog.DeadRatio = ratio(s.ValueLog.SegmentBytes-s.ValueLog.LiveBytes, s.ValueLog.SegmentBytes)
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the snapshot as one line of key=value pairs, the text the
// server's stats op returns and the command-line tools print: every field
// of the table, the rates, each device's traffic, each probed bloom level,
// the latency of each op that ran (the commit distribution is "mput", the
// protocol's name for a batch), and on a sharded store the shard count and
// each shard's op count.
func (s Snapshot) String() string {
	b := make([]byte, 0, 2048)
	for _, f := range fields {
		b = fmt.Appendf(b, "%s=%d ", f.key, f.get(&s))
	}
	b = fmt.Appendf(b, "wa=%.3f bloom_fp_rate=%.4f mean_group_size=%.2f", s.WriteAmplification, s.BloomFalsePositiveRate, s.MeanGroupSize)
	for _, d := range s.Devices {
		b = fmt.Appendf(b, " dev_%[1]s_written=%[2]d dev_%[1]s_read=%[3]d", d.Name, d.BytesWritten, d.BytesRead)
	}
	for _, l := range s.BloomLevels {
		if l.Probes > 0 {
			b = fmt.Appendf(b, " bloom_l%[1]d_probes=%[2]d bloom_l%[1]d_skips=%[3]d bloom_l%[1]d_fps=%[4]d bloom_l%[1]d_hits=%[5]d bloom_l%[1]d_fp_rate=%.4[6]f",
				l.Level, l.Probes, l.Skips, l.FalsePositives, l.Hits, l.FalsePositiveRate)
		}
	}
	for op, l := range s.OpLatencies {
		name := Op(op).String()
		if Op(op) == OpCommit {
			name = "mput"
		}
		if l.Count > 0 {
			b = fmt.Appendf(b, " lat_%[1]s_count=%[2]d lat_%[1]s_p50_us=%.1[3]f lat_%[1]s_p99_us=%.1[4]f lat_%[1]s_p999_us=%.1[5]f lat_%[1]s_max_us=%.1[6]f",
				name, l.Count, us(l.P50), us(l.P99), us(l.P999), us(l.Max))
		}
	}
	if len(s.Shards) > 0 {
		b = fmt.Appendf(b, " shards=%d", len(s.Shards))
		for i, sh := range s.Shards {
			b = fmt.Appendf(b, " shard%d_ops=%d", i, sh.Puts+sh.Gets+sh.Deletes+sh.Scans)
		}
	}
	return string(b)
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
