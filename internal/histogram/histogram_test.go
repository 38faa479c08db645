package histogram

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Error("empty histogram not all-zero")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P999 != 0 {
		t.Error("empty snapshot not zero")
	}
}

func TestBasicStats(t *testing.T) {
	h := New()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 45*time.Microsecond || mean > 56*time.Microsecond {
		t.Errorf("Mean = %v, want ≈50.5µs", mean)
	}
	if h.Max() != 100*time.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
	p50 := h.Percentile(50)
	if p50 < 40*time.Microsecond || p50 > 60*time.Microsecond {
		t.Errorf("P50 = %v, want ≈50µs", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 90*time.Microsecond || p99 > 105*time.Microsecond {
		t.Errorf("P99 = %v, want ≈99µs", p99)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(samplesRaw []uint32) bool {
		if len(samplesRaw) == 0 {
			return true
		}
		h := New()
		for _, s := range samplesRaw {
			h.Record(time.Duration(s%1e9) * time.Nanosecond)
		}
		prev := time.Duration(0)
		for _, p := range []float64{10, 50, 90, 99, 99.9, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentileAccuracy(t *testing.T) {
	// Log-bucketed: ≤ ~9% relative error per bucket.
	h := New()
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i+1) * time.Microsecond)
	}
	for _, p := range []float64{50, 90, 99} {
		want := float64(p) / 100 * 10000 // µs
		got := h.Percentile(p).Seconds() * 1e6
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("P%.0f = %.0fµs, want ≈%.0fµs", p, got, want)
		}
	}
}

func TestNegativeAndZeroDurations(t *testing.T) {
	h := New()
	h.Record(-5 * time.Second)
	h.Record(0)
	if h.Count() != 2 {
		t.Error("negative/zero samples dropped")
	}
	if h.Max() != 0 {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("Count = %d after concurrent records", h.Count())
	}
}

func TestTimelineBinsAndSpikes(t *testing.T) {
	tl := NewTimeline(5 * time.Millisecond)
	// Several flat bins, then one spiky bin: spread wall-clock time so
	// records land in distinct bins.
	for bin := 0; bin < 5; bin++ {
		lat := 10 * time.Microsecond
		if bin == 3 {
			lat = 10 * time.Millisecond // the stall spike
		}
		for i := 0; i < 10; i++ {
			tl.Record(lat)
		}
		time.Sleep(6 * time.Millisecond)
	}
	bins := tl.Bins()
	if len(bins) < 4 {
		t.Fatalf("only %d bins", len(bins))
	}
	var total int64
	for _, b := range bins {
		total += b.Count
	}
	if total != 50 {
		t.Errorf("bins hold %d samples, want 50", total)
	}
	if tl.SpikeFactor() < 10 {
		t.Errorf("SpikeFactor = %.1f, want large (spiky trace)", tl.SpikeFactor())
	}
	if tl.Sparkline() == "" {
		t.Error("empty sparkline")
	}
}

// TestTimelineStartsAtFirstRecord: time between making a timeline and
// its first operation (a store's open and load) adds no bins.
func TestTimelineStartsAtFirstRecord(t *testing.T) {
	tl := NewTimeline(10 * time.Millisecond)
	time.Sleep(35 * time.Millisecond)
	tl.Record(time.Microsecond)
	bins := tl.Bins()
	if len(bins) != 1 || bins[0].Start != 0 || bins[0].Count != 1 {
		t.Fatalf("bins = %+v, want one bin at 0 holding the record", bins)
	}
}

// TestTimelineSparklineMarksEmptyBins: a bin no operation completed in is
// drawn apart from every bar.
func TestTimelineSparklineMarksEmptyBins(t *testing.T) {
	tl := NewTimeline(10 * time.Millisecond)
	tl.Record(time.Microsecond)
	time.Sleep(25 * time.Millisecond)
	tl.Record(time.Microsecond)
	line := []rune(tl.Sparkline())
	if len(line) < 3 || line[0] == '·' || line[len(line)-1] == '·' {
		t.Fatalf("sparkline %q: want bars for the recorded bins at both ends", string(line))
	}
	for _, r := range line[1 : len(line)-1] {
		if r != '·' {
			t.Fatalf("sparkline %q: an empty bin drawn as %q", string(line), r)
		}
	}
}

// TestTimelinesAlignOnSharedTime: timelines whose samples carry one
// shared time bin them identically, whenever each was made.
func TestTimelinesAlignOnSharedTime(t *testing.T) {
	a := NewTimeline(10 * time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	b := NewTimeline(10 * time.Millisecond)
	t0 := time.Now()
	for _, at := range []time.Duration{0, 8, 12, 31} {
		a.RecordAt(t0.Add(at*time.Millisecond), time.Microsecond)
		b.RecordAt(t0.Add(at*time.Millisecond), 2*time.Microsecond)
	}
	ab, bb := a.Bins(), b.Bins()
	if len(ab) != 4 || len(bb) != 4 {
		t.Fatalf("bins: %d and %d, want 4 each", len(ab), len(bb))
	}
	for i := range ab {
		if ab[i].Start != bb[i].Start || ab[i].Count != bb[i].Count {
			t.Errorf("bin %d: %+v vs %+v", i, ab[i], bb[i])
		}
	}
}

func TestTimelineFlatProfile(t *testing.T) {
	tl := NewTimeline(10 * time.Millisecond)
	for i := 0; i < 100; i++ {
		tl.Record(20 * time.Microsecond)
	}
	if f := tl.SpikeFactor(); f > 1.5 {
		t.Errorf("flat profile SpikeFactor = %.2f", f)
	}
}

func TestZeroValueHistogram(t *testing.T) {
	// The zero value must behave like New(): stats.Recorder embeds
	// histograms by value without a constructor.
	var h Histogram
	if h.Count() != 0 || h.Percentile(50) != 0 {
		t.Error("zero-value histogram not empty")
	}
	h.Record(3 * time.Microsecond)
	h.Record(9 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Min != 3*time.Microsecond || s.Max != 9*time.Microsecond {
		t.Errorf("zero-value after records: %+v", s)
	}
}

func TestRecordNAndReset(t *testing.T) {
	var h Histogram
	h.RecordN(5*time.Microsecond, 10)
	h.RecordN(time.Microsecond, 0)  // no-op
	h.RecordN(time.Microsecond, -3) // no-op
	s := h.Snapshot()
	if s.Count != 10 || s.Mean != 5*time.Microsecond || s.Min != 5*time.Microsecond {
		t.Errorf("RecordN snapshot: %+v", s)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset left samples behind")
	}
	h.Record(time.Microsecond)
	if got := h.Snapshot(); got.Count != 1 || got.Min != time.Microsecond {
		t.Errorf("post-Reset snapshot: %+v", got)
	}
}

func TestPercentileOutOfRangeClamped(t *testing.T) {
	h := New()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if got, want := h.Percentile(-10), h.Percentile(0); got != want {
		t.Errorf("Percentile(-10) = %v, want Percentile(0) = %v", got, want)
	}
	if got, want := h.Percentile(250), h.Percentile(100); got != want {
		t.Errorf("Percentile(250) = %v, want Percentile(100) = %v", got, want)
	}
	if h.Percentile(250) > h.Max() {
		t.Errorf("Percentile(250) = %v exceeds Max = %v", h.Percentile(250), h.Max())
	}
}

func TestSingleSamplePercentiles(t *testing.T) {
	// With one sample min == max: every quantile must answer that sample
	// exactly, regardless of which bucket boundary it falls on.
	for _, d := range []time.Duration{1, 777, time.Microsecond, 3*time.Millisecond + 1} {
		var h Histogram
		h.Record(d)
		for _, p := range []float64{0, 50, 99, 99.9, 100, -5, 200} {
			if got := h.Percentile(p); got != d {
				t.Errorf("single sample %v: Percentile(%v) = %v", d, p, got)
			}
		}
		s := h.Snapshot()
		if s.P50 != d || s.P999 != d || s.Min != d || s.Max != d || s.Mean != d {
			t.Errorf("single sample %v: snapshot %+v", d, s)
		}
	}
}

// TestSnapshotMonotoneUnderConcurrentRecord is the regression test for
// the torn-snapshot bug: Snapshot used to acquire the mutex separately
// for Count/Mean/each Percentile/Max, so concurrent Record calls could
// yield p50 > p99 or a count inconsistent with the mean. The whole
// snapshot is now computed under one lock; its percentiles must be
// monotone no matter how hard writers race it.
func TestSnapshotMonotoneUnderConcurrentRecord(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := time.Duration(1<<uint(4*g)) * time.Microsecond
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Record(d + time.Duration(i%1000)*time.Nanosecond)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
			t.Fatalf("torn snapshot: p50=%v p90=%v p99=%v p99.9=%v max=%v",
				s.P50, s.P90, s.P99, s.P999, s.Max)
		}
		if s.Min > s.P50 || s.Mean > s.Max || s.Mean < s.Min {
			t.Fatalf("inconsistent snapshot: min=%v mean=%v max=%v p50=%v",
				s.Min, s.Mean, s.Max, s.P50)
		}
		if s.Mean != s.Sum/time.Duration(s.Count) {
			t.Fatalf("mean %v inconsistent with sum %v / count %d", s.Mean, s.Sum, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotMerge(t *testing.T) {
	var a, b, whole Histogram
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Microsecond
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	got := a.Snapshot().Merge(b.Snapshot())
	want := whole.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum ||
		got.Min != want.Min || got.Max != want.Max ||
		got.Mean != want.Mean || got.P50 != want.P50 ||
		got.P90 != want.P90 || got.P99 != want.P99 || got.P999 != want.P999 {
		t.Errorf("merged snapshot differs from whole:\n got %+v\nwant %+v", got, want)
	}
	// Merging with an empty side is the identity.
	if m := got.Merge(Snapshot{}); m.Count != got.Count || m.P99 != got.P99 {
		t.Errorf("merge with empty changed the snapshot: %+v", m)
	}
	if m := (Snapshot{}).Merge(got); m.Count != got.Count || m.P999 != got.P999 {
		t.Errorf("empty merged with full lost data: %+v", m)
	}
}

func TestSnapshotString(t *testing.T) {
	h := New()
	h.Record(100 * time.Microsecond)
	s := h.Snapshot().String()
	if s == "" {
		t.Error("empty snapshot string")
	}
}
