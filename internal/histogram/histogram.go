// Package histogram provides the latency-measurement machinery behind the
// paper's tail-latency tables (Tables 2 and 3) and the latency-over-time
// plot (Fig 8): a log-bucketed histogram with percentile queries, and a
// time-series recorder that bins operation latencies by elapsed time.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// bucketCount covers 1 ns .. ~18 s with ~4.6% resolution
// (64 decades of 16 sub-buckets over powers of √2 would be overkill;
// we use value = 2^(i/8), giving 8 buckets per octave).
const (
	subBucketsPerOctave = 8
	bucketCount         = 64 * subBucketsPerOctave / 2 // up to 2^32 ns ≈ 4.3 s
)

// Histogram records durations and answers percentile queries. It is safe
// for concurrent Record calls. The zero value is an empty histogram ready
// for use, so histograms can be embedded by value (stats.Recorder does).
type Histogram struct {
	mu      sync.Mutex
	buckets [bucketCount]int64
	count   int64
	sum     time.Duration
	min     time.Duration // valid only when count > 0
	max     time.Duration
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{}
}

func bucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log2(ns) * subBucketsPerOctave)
	if i < 0 {
		i = 0
	}
	if i >= bucketCount {
		i = bucketCount - 1
	}
	return i
}

func bucketValue(i int) time.Duration {
	return time.Duration(math.Exp2(float64(i)/subBucketsPerOctave) + 0.5)
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n samples of the same duration under one lock acquisition —
// the write path records one measured latency for every record of the
// same commit.
func (h *Histogram) RecordN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.buckets[bucketFor(d)] += n
	if h.count == 0 || d < h.min {
		h.min = d
	}
	h.count += n
	h.sum += d * time.Duration(n)
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.buckets = [bucketCount]int64{}
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// percentileFrom answers a quantile query against raw bucket counts.
// p is clamped to [0,100]; the answer is the representative value of the
// bucket containing the p-th sample (≤5% relative error), clamped to the
// observed [min, max] — so a single-sample histogram (min == max) reports
// that sample exactly at every quantile.
func percentileFrom(buckets []int64, count int64, min, max time.Duration, p float64) time.Duration {
	if count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range buckets {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}

// Percentile returns the approximate latency at quantile p; p outside
// [0,100] is clamped (an out-of-range query answers the nearest valid one
// instead of walking past the last bucket).
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentileFrom(h.buckets[:], h.count, h.min, h.max, p)
}

// Snapshot bundles the latency metrics the paper's tables report, plus
// the median the service-level benchmarks need. Buckets carries
// the raw counts (nil when Count == 0) so snapshots from different shards
// merge without percentile-of-percentile error.
type Snapshot struct {
	Count                     int64
	Mean, P50, P90, P99, P999 time.Duration
	Min, Max                  time.Duration
	Sum                       time.Duration
	Buckets                   []int64 `json:"-"`
}

// Snapshot computes count/avg/min/max and all percentiles atomically
// under one lock acquisition, so concurrent Record calls can never yield
// a torn view (e.g. p50 > p99, or a count inconsistent with the mean).
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return Snapshot{}
	}
	return makeSnapshot(h.buckets[:], h.count, h.sum, h.min, h.max)
}

// makeSnapshot derives the full metric bundle from raw histogram state,
// copying the bucket counts so the snapshot stays immutable.
func makeSnapshot(buckets []int64, count int64, sum, min, max time.Duration) Snapshot {
	s := Snapshot{Count: count, Sum: sum, Min: min, Max: max}
	if count == 0 {
		return s
	}
	s.Mean = sum / time.Duration(count)
	s.P50 = percentileFrom(buckets, count, min, max, 50)
	s.P90 = percentileFrom(buckets, count, min, max, 90)
	s.P99 = percentileFrom(buckets, count, min, max, 99)
	s.P999 = percentileFrom(buckets, count, min, max, 99.9)
	s.Buckets = append([]int64(nil), buckets...)
	return s
}

// Merge combines two snapshots into the snapshot of the union of their
// samples, recomputing mean and percentiles from the merged bucket counts
// (exact to bucket resolution — not a lossy percentile-of-percentiles).
// Shard aggregation uses this to report store-wide per-op latencies.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	buckets := make([]int64, bucketCount)
	copy(buckets, s.Buckets)
	for i, c := range o.Buckets {
		buckets[i] += c
	}
	min := s.Min
	if o.Min < min {
		min = o.Min
	}
	max := s.Max
	if o.Max > max {
		max = o.Max
	}
	return makeSnapshot(buckets, s.Count+o.Count, s.Sum+o.Sum, min, max)
}

// String renders the snapshot in the paper's Table 2 layout.
func (s Snapshot) String() string {
	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1e3) }
	return fmt.Sprintf("avg=%sµs p90=%sµs p99=%sµs p99.9=%sµs",
		us(s.Mean), us(s.P90), us(s.P99), us(s.P999))
}

// Timeline bins per-operation latencies by wall-clock elapsed time,
// reproducing Fig 8's latency-over-time trace: each bin keeps the mean and
// max latency of operations issued during that interval, so compaction- or
// flush-induced latency spikes are visible. Its clock starts at the first
// record, so the setup before the traced phase adds no bins.
type Timeline struct {
	mu     sync.Mutex
	start  time.Time // the first record's time; zero before it
	width  time.Duration
	sums   []time.Duration
	maxs   []time.Duration
	counts []int64
}

// NewTimeline makes a timeline with the given bin width.
func NewTimeline(binWidth time.Duration) *Timeline {
	return &Timeline{width: binWidth}
}

// Record logs one operation latency at the current time.
func (t *Timeline) Record(d time.Duration) { t.RecordAt(time.Now(), d) }

// RecordAt logs one latency at time at. Timelines fed the same time for
// their first record start together, so their bins line up.
func (t *Timeline) RecordAt(at time.Time, d time.Duration) {
	t.mu.Lock()
	if t.start.IsZero() {
		t.start = at
	}
	// A concurrent recorder may have read the clock before the first.
	idx := max(int(at.Sub(t.start)/t.width), 0)
	for len(t.sums) <= idx {
		t.sums = append(t.sums, 0)
		t.maxs = append(t.maxs, 0)
		t.counts = append(t.counts, 0)
	}
	t.sums[idx] += d
	t.counts[idx]++
	if d > t.maxs[idx] {
		t.maxs[idx] = d
	}
	t.mu.Unlock()
}

// BinWidth returns the timeline's bin width.
func (t *Timeline) BinWidth() time.Duration { return t.width }

// Bin is one timeline interval.
type Bin struct {
	Start     time.Duration
	Mean, Max time.Duration
	Count     int64
}

// Bins returns the recorded intervals in order.
func (t *Timeline) Bins() []Bin {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Bin, 0, len(t.sums))
	for i := range t.sums {
		b := Bin{Start: time.Duration(i) * t.width, Count: t.counts[i], Max: t.maxs[i]}
		if b.Count > 0 {
			b.Mean = t.sums[i] / time.Duration(b.Count)
		}
		out = append(out, b)
	}
	return out
}

// Sparkline renders max-latency bins as a compact ASCII trace — enough to
// eyeball whether a store exhibits Fig 8's periodic spikes. An empty bin
// (a stall longer than the bin) draws as '·', not as the fastest bar.
func (t *Timeline) Sparkline() string {
	bins := t.Bins()
	if len(bins) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	maxv := time.Duration(1)
	for _, b := range bins {
		if b.Max > maxv {
			maxv = b.Max
		}
	}
	var sb strings.Builder
	for _, b := range bins {
		if b.Count == 0 {
			sb.WriteRune('·')
			continue
		}
		// log scale: spikes of 100× read as near-full bars
		f := math.Log1p(float64(b.Max)) / math.Log1p(float64(maxv))
		i := int(f * float64(len(glyphs)-1))
		sb.WriteRune(glyphs[i])
	}
	return sb.String()
}

// SpikeFactor summarizes a timeline as max-bin-latency ÷ median-bin-latency;
// a store with write stalls shows a large factor, a stall-free store ≈ 1.
func (t *Timeline) SpikeFactor() float64 {
	bins := t.Bins()
	vals := make([]float64, 0, len(bins))
	var maxv float64
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		v := float64(b.Max)
		vals = append(vals, v)
		if v > maxv {
			maxv = v
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	med := vals[len(vals)/2]
	if med == 0 {
		return 0
	}
	return maxv / med
}
