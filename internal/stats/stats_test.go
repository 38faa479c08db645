package stats

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderSnapshot(t *testing.T) {
	r := &Recorder{}
	r.AddIntervalStall(100 * time.Millisecond)
	r.AddIntervalStall(50 * time.Millisecond)
	r.Add(CumulativeStallNs, int64(10*time.Millisecond))
	r.Add(SerializeNs, int64(time.Millisecond))
	r.Add(DeserializeNs, int64(2*time.Millisecond))
	r.AddFlush(5*time.Millisecond, 1024)
	r.AddCompaction(7 * time.Millisecond)
	r.Add(UserBytes, 4096)
	r.Add(UserBytes, 100)
	r.Add(Puts, 1)
	r.Add(UserBytes, 50)
	r.Add(Deletes, 1)
	r.Add(Puts, 1)
	r.Add(Gets, 1)
	r.Add(Deletes, 1)
	r.Add(Scans, 1)

	s := r.Snapshot()
	if s.IntervalStall != 150*time.Millisecond || s.IntervalStalls != 2 {
		t.Errorf("interval stalls: %v ×%d", s.IntervalStall, s.IntervalStalls)
	}
	if s.CumulativeStall != 10*time.Millisecond {
		t.Errorf("cumulative stall: %v", s.CumulativeStall)
	}
	if s.SerializeTime != time.Millisecond || s.DeserializeTime != 2*time.Millisecond {
		t.Error("serialize/deserialize times wrong")
	}
	if s.FlushTime != 5*time.Millisecond || s.FlushBytes != 1024 || s.Flushes != 1 {
		t.Error("flush accounting wrong")
	}
	if s.CompactionTime != 7*time.Millisecond || s.Compactions != 1 {
		t.Error("compaction accounting wrong")
	}
	if s.UserBytesWritten != 4096+100+50 {
		t.Errorf("user bytes = %d", s.UserBytesWritten)
	}
	if s.Puts != 2 || s.Gets != 1 || s.Deletes != 2 || s.Scans != 1 {
		t.Errorf("op counts: %d/%d/%d/%d", s.Puts, s.Gets, s.Deletes, s.Scans)
	}
}

func TestDeriveComputesWA(t *testing.T) {
	r := &Recorder{}
	r.Add(UserBytes, 1000)
	s := r.Snapshot()
	s.Devices = []DeviceCounters{
		{Name: "nvm", BytesWritten: 2500},
		{Name: "ssd", BytesWritten: 500},
	}
	s.Derive()
	if s.WriteAmplification != 3.0 {
		t.Errorf("WA = %.2f, want 3.0", s.WriteAmplification)
	}
	if len(s.Devices) != 2 {
		t.Errorf("devices = %d", len(s.Devices))
	}
	// Zero user bytes → WA stays zero (no divide-by-zero).
	var empty Snapshot
	empty.Devices = []DeviceCounters{{BytesWritten: 100}}
	empty.Derive()
	if empty.WriteAmplification != 0 {
		t.Error("WA computed with zero user bytes")
	}
}

func TestRecordOpLatencies(t *testing.T) {
	r := &Recorder{}
	for i := 1; i <= 100; i++ {
		r.RecordOp(OpGet, time.Duration(i)*time.Microsecond)
	}
	r.RecordOpN(OpPut, 40*time.Microsecond, 8) // one commit, 8 records
	r.RecordOpN(OpPut, time.Microsecond, 0)    // no-op
	r.RecordOp(Op(-1), time.Microsecond)       // out of range, ignored
	r.RecordOp(NumOps, time.Microsecond)       // out of range, ignored

	s := r.Snapshot()
	get := s.OpLatencies[OpGet]
	if get.Count != 100 {
		t.Errorf("get count = %d", get.Count)
	}
	if get.P50 > get.P99 || get.P99 > get.P999 || get.P999 > get.Max {
		t.Errorf("get percentiles not monotone: %+v", get)
	}
	put := s.OpLatencies[OpPut]
	if put.Count != 8 || put.P50 != 40*time.Microsecond {
		t.Errorf("put latencies: %+v", put)
	}
	if s.OpLatencies[OpScan].Count != 0 {
		t.Error("scan recorded spuriously")
	}

	r.Reset()
	if got := r.Snapshot(); got.OpLatencies[OpGet].Count != 0 || got.OpLatencies[OpPut].Count != 0 {
		t.Error("Reset left op latency samples")
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{OpPut: "put", OpGet: "get", OpDelete: "delete",
		OpScan: "scan", OpCommit: "commit", NumOps: "unknown"}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), name)
		}
	}
}

func TestAggregateMergesOpLatenciesAndBacklog(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	for i := 0; i < 50; i++ {
		a.RecordOp(OpGet, 10*time.Microsecond)
		b.RecordOp(OpGet, 1000*time.Microsecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.PendingImms, sa.PendingImmBytes, sa.L0Tables, sa.L0Bytes = 3, 3<<10, 2, 2<<10
	sb.PendingImms, sb.PendingImmBytes, sb.L0Tables, sb.L0Bytes = 5, 5<<10, 1, 1<<10

	out := Aggregate([]Snapshot{sa, sb})
	get := out.OpLatencies[OpGet]
	if get.Count != 100 {
		t.Errorf("aggregated get count = %d", get.Count)
	}
	// Half the samples are fast, half slow: the merged p99 must reflect
	// the slow shard, the min the fast one.
	if get.P99 < 500*time.Microsecond {
		t.Errorf("aggregated p99 = %v, want ≥500µs", get.P99)
	}
	if get.Min != 10*time.Microsecond {
		t.Errorf("aggregated min = %v", get.Min)
	}
	if out.PendingImms != 8 || out.PendingImmBytes != 8<<10 || out.L0Tables != 3 || out.L0Bytes != 3<<10 {
		t.Errorf("aggregated backlog: imms=%d immBytes=%d l0=%d l0Bytes=%d",
			out.PendingImms, out.PendingImmBytes, out.L0Tables, out.L0Bytes)
	}
}

// TestHeatSampling pins the governor's polling contract: Heat is a cheap
// cumulative sample, Delta yields the per-interval change, and a counter
// reset mid-run reads as idle (clamped to zero), never as a negative
// rate.
func TestHeatSampling(t *testing.T) {
	r := &Recorder{}
	r.Add(UserBytes, 4096)
	r.AddFlush(time.Millisecond, 1024)
	r.Add(Rotations, 1)
	r.Add(Rotations, 1)

	h1 := r.Heat()
	if h1.UserBytes != 4096 || h1.Flushes != 1 || h1.FlushBytes != 1024 || h1.Rotations != 2 {
		t.Fatalf("heat sample = %+v", h1)
	}
	r.Add(UserBytes, 100)
	r.Add(Rotations, 1)
	d := r.Heat().Delta(h1)
	if d.UserBytes != 100 || d.Rotations != 1 || d.Flushes != 0 || d.FlushBytes != 0 {
		t.Errorf("delta = %+v", d)
	}

	// Snapshot carries the same rotation counter; Reset zeroes it.
	if got := r.Snapshot().Rotations; got != 3 {
		t.Errorf("snapshot rotations = %d", got)
	}
	r.Reset()
	if got := r.Heat(); got != (Heat{}) {
		t.Errorf("heat after reset = %+v", got)
	}
	// A delta across the reset clamps to zero instead of going negative.
	if d := r.Heat().Delta(h1); d != (Heat{}) {
		t.Errorf("delta across reset = %+v", d)
	}
}

// TestAggregateSumsAndMaxima is the regression test for the cross-shard
// merge: additive counters (backlog gauges, heat counters, memory
// gauges) must sum, while wall-clock stalls and the read epoch — where a
// sum would overstate parallel shards — must take the maximum.
func TestAggregateSumsAndMaxima(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	a.AddIntervalStall(30 * time.Millisecond)
	b.AddIntervalStall(50 * time.Millisecond)
	a.Add(CumulativeStallNs, int64(5*time.Millisecond))
	b.Add(CumulativeStallNs, int64(2*time.Millisecond))
	a.AddFlush(time.Millisecond, 1000)
	b.AddFlush(time.Millisecond, 2000)
	a.Add(UserBytes, 10)
	b.Add(UserBytes, 20)
	for i := 0; i < 3; i++ {
		a.Add(Rotations, 1)
	}
	b.Add(Rotations, 1)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.PendingImms, sa.PendingImmBytes, sa.L0Tables, sa.L0Bytes = 3, 3<<10, 2, 2<<10
	sb.PendingImms, sb.PendingImmBytes, sb.L0Tables, sb.L0Bytes = 5, 5<<10, 1, 1<<10
	sa.MemTableTargetBytes, sa.MemTableUsedBytes = 8<<10, 100
	sb.MemTableTargetBytes, sb.MemTableUsedBytes = 24<<10, 300
	sa.ReadEpoch = 7
	sb.ReadEpoch = 4

	out := Aggregate([]Snapshot{sa, sb})
	// Sums.
	if out.Flushes != 2 || out.FlushBytes != 3000 {
		t.Errorf("flushes = %d/%d", out.Flushes, out.FlushBytes)
	}
	if out.Rotations != 4 {
		t.Errorf("rotations = %d, want 4", out.Rotations)
	}
	if out.UserBytesWritten != 30 {
		t.Errorf("user bytes = %d", out.UserBytesWritten)
	}
	if out.PendingImms != 8 || out.PendingImmBytes != 8<<10 || out.L0Tables != 3 || out.L0Bytes != 3<<10 {
		t.Errorf("backlog: imms=%d immBytes=%d l0=%d l0Bytes=%d",
			out.PendingImms, out.PendingImmBytes, out.L0Tables, out.L0Bytes)
	}
	if out.MemTableTargetBytes != 32<<10 || out.MemTableUsedBytes != 400 {
		t.Errorf("memory gauges: target=%d used=%d", out.MemTableTargetBytes, out.MemTableUsedBytes)
	}
	// Maxima: shards stall in parallel; a sum would overstate wall-clock.
	if out.IntervalStall != 50*time.Millisecond {
		t.Errorf("interval stall = %v, want the 50ms max", out.IntervalStall)
	}
	if out.IntervalStalls != 2 {
		t.Errorf("interval stall count = %d, want the sum 2", out.IntervalStalls)
	}
	if out.CumulativeStall != 5*time.Millisecond {
		t.Errorf("cumulative stall = %v, want the 5ms max", out.CumulativeStall)
	}
	if out.ReadEpoch != 7 {
		t.Errorf("read epoch = %d, want the max 7", out.ReadEpoch)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := &Recorder{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(Puts, 1)
				r.Add(UserBytes, 1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Puts != 4000 || s.UserBytesWritten != 4000 {
		t.Errorf("concurrent counts: puts=%d bytes=%d", s.Puts, s.UserBytesWritten)
	}
}

// notInTable names the Snapshot fields that fields does not list: the rates
// Derive computes and the structured parts Aggregate merges by hand.
var notInTable = map[string]bool{
	"MeanGroupSize": true, "BloomFalsePositiveRate": true, "WriteAmplification": true,
	"BloomLevels": true, "OpLatencies": true, "Devices": true, "ValueLog": true, "Shards": true,
}

// TestFieldTableCoversSnapshot walks Snapshot by reflection: every field is
// either one row of the table or named in notInTable, so a counter added
// later cannot be missed by Reset, Aggregate or String. Each row must reach
// its own field, and each Counter must feed exactly one row.
func TestFieldTableCoversSnapshot(t *testing.T) {
	typ := reflect.TypeOf(Snapshot{})
	rowOf := map[string]string{}
	fed := map[Counter]int{}
	for _, f := range fields {
		var s Snapshot
		f.set(&s, 7)
		if f.get(&s) != 7 {
			t.Errorf("row %s: get does not read what set wrote", f.key)
		}
		v := reflect.ValueOf(s)
		for i := 0; i < typ.NumField(); i++ {
			if !v.Field(i).IsZero() {
				name := typ.Field(i).Name
				if prev, dup := rowOf[name]; dup {
					t.Errorf("rows %s and %s both reach %s", prev, f.key, name)
				}
				rowOf[name] = f.key
			}
		}
		if f.src != noCounter {
			fed[f.src]++
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		_, inTable := rowOf[sf.Name]
		switch sf.Type.Kind() {
		case reflect.Int64, reflect.Uint64:
			if !inTable {
				t.Errorf("%s (%s) has no row in the field table", sf.Name, sf.Type)
			}
		default:
			if !notInTable[sf.Name] {
				t.Errorf("%s (%s) is neither in the table nor listed as derived or structured", sf.Name, sf.Type)
			}
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		if fed[c] != 1 {
			t.Errorf("counter %d feeds %d rows, want 1", c, fed[c])
		}
	}
}

// TestAggregateOfOneIsIdentity pins Derive to one rule for one engine and
// for N: aggregating one fully populated, derived snapshot reproduces it,
// apart from the Shards slice Aggregate adds.
func TestAggregateOfOneIsIdentity(t *testing.T) {
	r := &Recorder{}
	for c := Counter(0); c < numCounters; c++ {
		r.Add(c, int64(100+c))
	}
	for op := Op(0); op < NumOps; op++ {
		r.RecordOpN(op, time.Duration(op+1)*time.Microsecond, 3)
	}
	s := r.Snapshot()
	for i, f := range fields {
		if f.src == noCounter {
			f.set(&s, int64(1000+i))
		}
	}
	s.BloomLevels = []BloomLevelCounters{
		{Level: 0, Probes: 40, Skips: 30, FalsePositives: 2, Hits: 5},
		{Level: 1, Probes: 20, Skips: 10, FalsePositives: 1, Hits: 3},
	}
	s.BloomProbes, s.BloomSkips, s.BloomFalsePositives = 60, 40, 3
	s.Devices = []DeviceCounters{{Name: "dram", BytesRead: 1, BytesWritten: 2}, {Name: "nvm", BytesRead: 3, BytesWritten: 4000}}
	s.ValueLog = ValueLogCounters{Enabled: true, Segments: 2, SegmentBytes: 400, LiveBytes: 100, Appends: 5,
		AppendedBytes: 500, GCRelocations: 6, GCRelocatedBytes: 60, GCSegmentsReclaimed: 1, GCReclaimedBytes: 200}
	s.Derive()
	if s.WriteAmplification == 0 || s.MeanGroupSize == 0 || s.BloomFalsePositiveRate == 0 ||
		s.BloomLevels[1].FalsePositiveRate == 0 || s.ValueLog.DeadRatio == 0 {
		t.Fatalf("Derive left a rate at zero: %+v", s)
	}
	out := Aggregate([]Snapshot{s})
	if len(out.Shards) != 1 {
		t.Fatalf("Shards = %d, want 1", len(out.Shards))
	}
	out.Shards = nil
	if !reflect.DeepEqual(out, s) {
		t.Errorf("Aggregate of one:\n got %s\nwant %s", out, s)
	}
}

// TestStringRendersTable checks the one text: every row's key with its
// value, the rates in their fixed precision and the per-shard op counts.
func TestStringRendersTable(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	a.Add(Puts, 3)
	b.Add(Gets, 2)
	b.RecordOp(OpCommit, 40*time.Microsecond)
	out := Aggregate([]Snapshot{a.Snapshot(), b.Snapshot()})
	line := out.String()
	for _, f := range fields {
		if !strings.Contains(line, fmt.Sprintf("%s=%d", f.key, f.get(&out))) {
			t.Errorf("text lacks %s: %q", f.key, line)
		}
	}
	for _, want := range []string{" wa=0.000 ", " bloom_fp_rate=0.0000 ", " mean_group_size=0.00", " lat_mput_p50_us=40.",
		" shards=2 ", " shard0_ops=3 ", " shard1_ops=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("text lacks %q: %q", want, line)
		}
	}
}
