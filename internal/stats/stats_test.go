package stats

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderSnapshot(t *testing.T) {
	r := &Recorder{}
	r.AddIntervalStall(100 * time.Millisecond)
	r.AddIntervalStall(50 * time.Millisecond)
	r.AddCumulativeStall(10 * time.Millisecond)
	r.AddSerialize(time.Millisecond)
	r.AddDeserialize(2 * time.Millisecond)
	r.AddFlush(5*time.Millisecond, 1024)
	r.AddCompaction(7 * time.Millisecond)
	r.AddUserBytes(4096)
	r.AddUserBytesAndCount(100, false)
	r.AddUserBytesAndCount(50, true)
	r.CountPut()
	r.CountGet()
	r.CountDelete()
	r.CountScan()

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

func TestAttachDevicesComputesWA(t *testing.T) {
	r := &Recorder{}
	r.AddUserBytes(1000)
	s := r.Snapshot()
	s.AttachDevices(
		DeviceCounters{Name: "nvm", BytesWritten: 2500},
		DeviceCounters{Name: "ssd", BytesWritten: 500},
	)
	if s.WriteAmplification != 3.0 {
		t.Errorf("WA = %.2f, want 3.0", s.WriteAmplification)
	}
	if len(s.Devices) != 2 {
		t.Errorf("devices = %d", len(s.Devices))
	}
	// Zero user bytes → WA stays zero (no divide-by-zero).
	var empty Snapshot
	empty.AttachDevices(DeviceCounters{BytesWritten: 100})
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
	sa.AttachBacklog(3, 3<<10, 2, 2<<10)
	sb.AttachBacklog(5, 5<<10, 1, 1<<10)

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
	r.AddUserBytes(4096)
	r.AddFlush(time.Millisecond, 1024)
	r.CountRotation()
	r.CountRotation()

	h1 := r.Heat()
	if h1.UserBytes != 4096 || h1.Flushes != 1 || h1.FlushBytes != 1024 || h1.Rotations != 2 {
		t.Fatalf("heat sample = %+v", h1)
	}
	r.AddUserBytes(100)
	r.CountRotation()
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
	a.AddCumulativeStall(5 * time.Millisecond)
	b.AddCumulativeStall(2 * time.Millisecond)
	a.AddFlush(time.Millisecond, 1000)
	b.AddFlush(time.Millisecond, 2000)
	a.AddUserBytes(10)
	b.AddUserBytes(20)
	for i := 0; i < 3; i++ {
		a.CountRotation()
	}
	b.CountRotation()

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.AttachBacklog(3, 3<<10, 2, 2<<10)
	sb.AttachBacklog(5, 5<<10, 1, 1<<10)
	sa.AttachMemory(8<<10, 100)
	sb.AttachMemory(24<<10, 300)
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
				r.CountPut()
				r.AddUserBytes(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Puts != 4000 || s.UserBytesWritten != 4000 {
		t.Errorf("concurrent counts: puts=%d bytes=%d", s.Puts, s.UserBytesWritten)
	}
}
