package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"miodb/internal/core"
	"miodb/internal/nvm"
	"miodb/internal/stats"
	"miodb/internal/vlog"
)

// clock brackets a measured phase: wall time, process CPU (user+sys, so
// background flush and merge threads count) and Go heap bytes allocated.
type clock struct {
	t0    time.Time
	cpu0  time.Duration
	heap0 uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func startClock() clock {
	return clock{heap0: heapAllocated(), cpu0: processCPU(), t0: time.Now()}
}

func (c clock) since() time.Duration { return time.Since(c.t0) }

func (c clock) stop(r *trialResult) {
	r.wallS += c.since().Seconds()
	r.cpuS += (processCPU() - c.cpu0).Seconds()
	r.allocBytes += heapAllocated() - c.heap0
}

// latency summarizes one kind's samples of one trial.
type latency struct {
	n              int
	p50, p99, p999 float64 // µs
	sumNs          float64
}

func summarize(samples []uint32) latency {
	if len(samples) == 0 {
		return latency{}
	}
	slices.Sort(samples)
	at := func(p float64) float64 {
		i := int(p * float64(len(samples)))
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return float64(samples[i]) / 1e3
	}
	l := latency{n: len(samples), p50: at(0.50), p99: at(0.99), p999: at(0.999)}
	for _, s := range samples {
		l.sumNs += float64(s)
	}
	return l
}

// summarizeKinds folds the workers' samples into one summary per op kind.
func summarizeKinds(workers []*worker) (out [numKinds]latency) {
	for k := range out {
		var merged []uint32
		for _, w := range workers {
			merged = append(merged, w.lat[k]...)
		}
		out[k] = summarize(merged)
	}
	return out
}

// trialResult is everything one trial measured or read off the engine.
type trialResult struct {
	setupStart time.Time
	setupS     float64

	ops        int     // ops inside the throughput clock
	wallS      float64 // first op until idle (read-only: until last op)
	ackS       float64 // first op until last ack
	openLoopS  float64 // wire-mixed: length of the open loop, measured too
	cpuS       float64
	allocBytes uint64

	lat    [numKinds]latency // closed loop, at the caller
	latAll latency
	// wire-mixed's open loop: latency from due time per kind, and how late
	// each request was sent.
	openLat [numKinds]latency
	genLag  latency

	attempted, failed int

	// The engine's own counters when the clock started and after the
	// final drain; layer counts are the difference, amplification is
	// since Open.
	before, after       counters
	liveBytes, nvmUsage int64
	vlogGCBusy          time.Duration
	recoverMs           float64
	peakImms, peakL0    int64
}

// counters is everything the engine already exposes about its own work.
type counters struct {
	st         stats.Snapshot
	compaction []core.CompactionStats
	dram, nvm  nvm.Counters
	vlog       vlog.Counters
}

func readCounters(db *core.DB) counters {
	dram, nvmDev := db.Devices()
	return counters{
		st:         db.Stats(),
		compaction: db.CompactionStats(),
		dram:       dram.Counters(),
		nvm:        nvmDev.Counters(),
		vlog:       db.ValueLogCounters(),
	}
}

// markClockStart ends set-up: it takes the engine's counters as the
// base the measured interval is differenced against.
func (r *trialResult) markClockStart(db *core.DB) {
	r.before = readCounters(db)
	r.vlogGCBusy = 0 // the preload's GC is set-up
	r.setupS = time.Since(r.setupStart).Seconds()
}

// collect reads the engine's own counters after the drain and folds the
// workers' samples into per-kind summaries.
func (t *trial) collect() {
	r := &t.res
	r.lat = summarizeKinds(t.workers)
	var all []uint32
	for _, w := range t.workers {
		for k := range w.lat {
			all = append(all, w.lat[k]...)
		}
	}
	r.latAll = summarize(all)

	r.after = readCounters(t.db)
	r.nvmUsage = t.db.NVMUsage()
	for id := range t.m.acked {
		if t.m.acked[id].Load() > 0 {
			r.liveBytes += int64(keyLen + t.spec.valueLen)
		}
	}
}

// backlogSampler polls the engine's backlog gauges during a traced run;
// the untraced run pays nothing for it.
type backlogSampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	imms, l0 int64
}

func startBacklogSampler(db *core.DB) *backlogSampler {
	s := &backlogSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				st := db.Stats()
				if st.PendingImms > s.imms {
					s.imms = st.PendingImms
				}
				if st.L0Tables > s.l0 {
					s.l0 = st.L0Tables
				}
			}
		}
	}()
	return s
}

func (s *backlogSampler) stop() (imms, l0 int64) {
	close(s.done)
	s.wg.Wait()
	return s.imms, s.l0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
