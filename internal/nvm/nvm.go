// Package nvm models byte-addressable memory devices — DRAM and
// non-volatile memory (NVM) — for the hybrid memory system the paper
// targets.
//
// The paper evaluates on Intel Optane DC Persistent Memory, which is not
// available here; the substitution (documented in DESIGN.md) is a device
// model that preserves the two properties every experiment depends on:
//
//  1. Byte addressability: regions of the device are ordinary vaddr arenas,
//     so persistent skip lists manipulate 8-byte words in place.
//  2. Asymmetric performance: each device charges calibrated per-operation
//     latency and per-byte bandwidth costs. The default NVM profile follows
//     the paper's §2.1 measurements (NVM random-write bandwidth ≈ 7× lower
//     than DRAM; access latency ≈ 300 ns vs ~80 ns).
//
// Devices also count bytes read/written, which feeds the write-amplification
// ratio (device write traffic ÷ user-written bytes) reported in Fig 2(d),
// Table 1, and Fig 11. The block devices of internal/vfs meter, delay and
// fail their file I/O through a Device too, one with no address space.
package nvm

import (
	"runtime"
	"sync/atomic"
	"time"

	"miodb/internal/stats"
	"miodb/internal/vaddr"
)

// Profile describes the performance characteristics of a memory device.
type Profile struct {
	// Name identifies the device class in stats output.
	Name string
	// ReadLatency and WriteLatency are fixed per-operation costs.
	ReadLatency, WriteLatency time.Duration
	// ReadNanosPerByte and WriteNanosPerByte are inverse bandwidths.
	ReadNanosPerByte, WriteNanosPerByte float64
}

// DRAMProfile models DRAM: the host memory the simulation itself runs in,
// so no extra cost is injected.
func DRAMProfile() Profile {
	return Profile{Name: "dram"}
}

// NVMProfile models Optane-class persistent memory relative to DRAM:
// ~300 ns access latency, ~6.5 GB/s read and ~2 GB/s write streaming
// bandwidth (the paper's "random write throughput of Intel Optane DCPMM is
// almost 7 times lower than that of DRAM").
func NVMProfile() Profile {
	return Profile{
		Name:              "nvm",
		ReadLatency:       300 * time.Nanosecond,
		WriteLatency:      300 * time.Nanosecond,
		ReadNanosPerByte:  0.15, // ≈ 6.5 GB/s
		WriteNanosPerByte: 0.5,  // ≈ 2.0 GB/s
	}
}

// Device is a metered memory device bound to a shared virtual address
// space. It implements vaddr.Meter: every metered region access charges the
// device's latency/bandwidth model and its byte counters.
type Device struct {
	space   *vaddr.Space
	profile Profile
	// free marks an all-zero profile (DRAM): no delay can ever be charged,
	// so the metering fast path skips the charge arithmetic entirely. This
	// matters because the memtable skip list charges its device on every
	// node access.
	free bool

	// simulate enables latency injection; byte accounting is always on.
	simulate atomic.Bool
	// timeScale scales injected delays (1.0 = full model). Stored as
	// nanos-per-nano ×1e6 to keep it atomic.
	timeScaleMicro atomic.Int64

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64

	// debt accumulates sub-granularity delays so tiny operations (8-byte
	// pointer stores) are charged in aggregate instead of per-op spinning.
	debt atomic.Int64

	// faults, when non-nil, is consulted by the error-returning seams of
	// the storage stack (WAL appends, manifest appends, flush/compaction
	// entry points, a disk's file I/O) via CheckWrite/CheckRead. The metering callbacks
	// OnRead/OnWrite stay infallible: raw pointer stores into mapped NVM
	// cannot fail on real hardware either.
	faults atomic.Pointer[FaultPlan]
}

// NewDevice creates a device over the given space. Latency simulation
// starts disabled; call SetSimulation(true) for benchmark runs. A device
// that meters without regions (a vfs.Disk's) takes a nil space and is
// charged through OnReads/OnWrites only.
func NewDevice(space *vaddr.Space, profile Profile) *Device {
	d := &Device{space: space, profile: profile}
	d.free = profile.ReadLatency == 0 && profile.WriteLatency == 0 &&
		profile.ReadNanosPerByte == 0 && profile.WriteNanosPerByte == 0
	d.timeScaleMicro.Store(1_000_000)
	return d
}

// Space returns the shared virtual address space.
func (d *Device) Space() *vaddr.Space { return d.space }

// Profile returns the device's performance profile.
func (d *Device) Profile() Profile { return d.profile }

// SetSimulation toggles latency injection. Byte accounting (for write
// amplification) is unaffected.
func (d *Device) SetSimulation(on bool) { d.simulate.Store(on) }

// SetTimeScale scales all injected delays; 0 disables them, 1 is the full
// calibrated model. Useful to shrink wall-clock time of large sweeps while
// preserving relative costs.
func (d *Device) SetTimeScale(scale float64) {
	d.timeScaleMicro.Store(int64(scale * 1e6))
}

// SetFaultPlan installs (or, with nil, removes) a fault-injection plan.
func (d *Device) SetFaultPlan(p *FaultPlan) { d.faults.Store(p) }

// Faults returns the installed fault plan, or nil.
func (d *Device) Faults() *FaultPlan { return d.faults.Load() }

// CheckWrite gates an n-byte logical write against the fault plan. The
// nil-plan fast path costs one atomic load.
func (d *Device) CheckWrite(n int) WriteOutcome {
	return d.faults.Load().CheckWrite(n)
}

// CheckRead gates an n-byte logical read against the fault plan.
func (d *Device) CheckRead(n int) error {
	return d.faults.Load().CheckRead(n)
}

// NewRegion allocates a fresh metered region on this device, every chunk
// backed in full.
func (d *Device) NewRegion(chunkSize int) *vaddr.Region {
	return d.NewRegionGrain(chunkSize, chunkSize)
}

// NewRegionGrain allocates a fresh metered region whose chunks are
// chunkSize apart but backed by grain bytes each (see vaddr.Region).
func (d *Device) NewRegionGrain(chunkSize, grain int) *vaddr.Region {
	return d.space.NewRegionGrain(chunkSize, grain, d)
}

// NewRegionSpare is NewRegionGrain with a recycled chunk as the first
// chunk when it fits (vaddr.Space.NewRegionSpare).
func (d *Device) NewRegionSpare(chunkSize, grain int, spare vaddr.Spare) *vaddr.Region {
	return d.space.NewRegionSpare(chunkSize, grain, d, spare)
}

// Clone bulk-copies src into a new region on this device (the one-piece
// flush transfer). The whole extent is charged as a single streaming write.
func (d *Device) Clone(src *vaddr.Region) *vaddr.Region {
	return d.space.Clone(src, d)
}

// Release returns a region's memory to the system.
func (d *Device) Release(r *vaddr.Region) { d.space.Release(r) }

// Recycle releases a region no reader holds any more and returns its
// first chunk for a later region of the same shape (vaddr.Space.Recycle).
func (d *Device) Recycle(r *vaddr.Region) (vaddr.Spare, bool) { return d.space.Recycle(r) }

// OnRead implements vaddr.Meter.
func (d *Device) OnRead(n int) { d.OnReads(1, n) }

// OnReads implements vaddr.Meter: count reads totalling n bytes, charged
// as one. The metering contract (DESIGN.md §1): a multi-step walk — a
// skip-list search, one step of a merge or an absorb, a flush's swizzle —
// tallies its loads and its stores and settles here once when it ends; a
// lone access charges as it happens. The counters grow by exactly what
// count OnRead calls would have added, and the modeled delay is the same
// because it is linear in operations and bytes; what a walk saves is
// count-1 rounds of atomics on the one cache line every thread shares.
func (d *Device) OnReads(count, n int) {
	d.bytesRead.Add(int64(n))
	d.reads.Add(int64(count))
	if !d.free && d.simulate.Load() {
		d.charge(d.profile.ReadLatency, d.profile.ReadNanosPerByte, count, n)
	}
}

// OnWrite implements vaddr.Meter.
func (d *Device) OnWrite(n int) { d.OnWrites(1, n) }

// OnWrites implements vaddr.Meter: OnReads for stores.
func (d *Device) OnWrites(count, n int) {
	d.bytesWritten.Add(int64(n))
	d.writes.Add(int64(count))
	if !d.free && d.simulate.Load() {
		d.charge(d.profile.WriteLatency, d.profile.WriteNanosPerByte, count, n)
	}
}

// charge injects the latency of ops operations plus the bandwidth delay of
// n bytes, scaled by the time scale. Delays below the granularity threshold
// accumulate in debt and are paid in bulk, so that metering 8-byte atomic
// stores stays cheap and the aggregate bandwidth model remains accurate.
func (d *Device) charge(lat time.Duration, nsPerByte float64, ops, n int) {
	scale := float64(d.timeScaleMicro.Load()) / 1e6
	if scale <= 0 {
		return
	}
	ns := int64(scale * (float64(lat)*float64(ops) + nsPerByte*float64(n)))
	if ns <= 0 {
		return
	}
	const granularity = 4096 // ns: pay debt in ≥4 µs units
	total := d.debt.Add(ns)
	if total < granularity {
		return
	}
	if d.debt.CompareAndSwap(total, 0) {
		Spin(time.Duration(total))
	}
}

// Counters is a snapshot of a device's traffic counters.
type Counters struct {
	Name                    string
	BytesRead, BytesWritten int64
	Reads, Writes           int64
}

// Stats returns the traffic as one device entry of a stats snapshot.
func (c Counters) Stats() stats.DeviceCounters {
	return stats.DeviceCounters{Name: c.Name, BytesRead: c.BytesRead, BytesWritten: c.BytesWritten}
}

// Counters returns the device's accumulated traffic.
func (d *Device) Counters() Counters {
	return Counters{
		Name:         d.profile.Name,
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		Reads:        d.reads.Load(),
		Writes:       d.writes.Load(),
	}
}

// ResetCounters zeroes the traffic counters (used between benchmark
// phases so load-phase traffic does not pollute run-phase metrics).
func (d *Device) ResetCounters() {
	d.bytesRead.Store(0)
	d.bytesWritten.Store(0)
	d.reads.Store(0)
	d.writes.Store(0)
}

// Devices is one store's device list, built once at open: its options
// reach every device through it, and its stats and counter resets are
// read from it.
type Devices []*Device

// Simulate sets latency injection and its time scale on every device.
func (ds Devices) Simulate(on bool, scale float64) {
	for _, d := range ds {
		d.SetSimulation(on)
		d.SetTimeScale(scale)
	}
}

// Stats returns every device's traffic, in list order.
func (ds Devices) Stats() []stats.DeviceCounters {
	out := make([]stats.DeviceCounters, len(ds))
	for i, d := range ds {
		out[i] = d.Counters().Stats()
	}
	return out
}

// ResetCounters zeroes every device's traffic counters.
func (ds Devices) ResetCounters() {
	for _, d := range ds {
		d.ResetCounters()
	}
}

// Spin delays the calling goroutine for roughly dur. Short waits poll the
// clock (time.Sleep cannot resolve microseconds reliably); longer waits
// sleep. The poll loop yields to the scheduler on every iteration: on a
// machine with few cores, a non-yielding busy-wait in a background
// compaction goroutine would steal whole scheduler quanta from foreground
// operations and masquerade as tail latency — the opposite of what the
// device model intends (a device wait occupies the device, not the CPU).
func Spin(dur time.Duration) {
	if dur <= 0 {
		return
	}
	if dur >= 100*time.Microsecond {
		time.Sleep(dur)
		return
	}
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
