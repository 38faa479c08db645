package nvm

import (
	"testing"
	"time"

	"miodb/internal/vaddr"
)

func TestDeviceRegionAndCounters(t *testing.T) {
	space := vaddr.NewSpace()
	d := NewDevice(space, NVMProfile())
	r := d.NewRegion(4096)
	a, err := r.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	r.Write(a, make([]byte, 64))
	r.Read(a, 64)
	c := d.Counters()
	if c.BytesWritten != 64 || c.BytesRead != 64 {
		t.Errorf("counters = %+v", c)
	}
	if c.Name != "nvm" {
		t.Errorf("Name = %s", c.Name)
	}
	d.ResetCounters()
	if c := d.Counters(); c.BytesWritten != 0 {
		t.Error("ResetCounters failed")
	}
}

func TestCloneChargesBulkWrite(t *testing.T) {
	space := vaddr.NewSpace()
	dram := NewDevice(space, DRAMProfile())
	nv := NewDevice(space, NVMProfile())
	src := dram.NewRegion(4096)
	for i := 0; i < 10; i++ {
		a, _ := src.Alloc(512)
		src.Write(a, make([]byte, 512))
	}
	before := nv.Counters().BytesWritten
	clone := nv.Clone(src)
	written := nv.Counters().BytesWritten - before
	if written < src.Size() {
		t.Errorf("clone charged %d bytes, extent %d", written, src.Size())
	}
	if clone.Size() != src.Size() {
		t.Errorf("clone size %d != src %d", clone.Size(), src.Size())
	}
}

func TestLatencyInjectionAggregates(t *testing.T) {
	space := vaddr.NewSpace()
	d := NewDevice(space, NVMProfile())
	r := d.NewRegion(1 << 20)
	a, _ := r.Alloc(1 << 19)
	payload := make([]byte, 1<<19) // 512 KiB

	start := time.Now()
	r.Write(a, payload)
	fast := time.Since(start)

	d.SetSimulation(true)
	start = time.Now()
	r.Write(a, payload) // 512 KiB at 0.5 ns/B ≈ 262 µs
	slow := time.Since(start)
	if slow < 100*time.Microsecond {
		t.Errorf("simulated bulk write took %v, expected ≥ ~260µs", slow)
	}
	_ = fast

	// Small writes accumulate debt and pay it in aggregate: total time
	// for many 8-byte writes still reflects the bandwidth model's order
	// of magnitude without per-op spinning.
	d.SetTimeScale(1)
	start = time.Now()
	for i := 0; i < 1000; i++ {
		r.Store64(a, uint64(i)) // 8 KB total + 1000 × 300 ns latency
	}
	agg := time.Since(start)
	if agg < 100*time.Microsecond {
		t.Errorf("aggregated small writes took %v, expected ≥ ~300µs of modeled latency", agg)
	}
}

func TestTimeScaleZeroDisables(t *testing.T) {
	space := vaddr.NewSpace()
	d := NewDevice(space, NVMProfile())
	d.SetSimulation(true)
	d.SetTimeScale(0)
	r := d.NewRegion(1 << 20)
	a, _ := r.Alloc(1 << 19)
	start := time.Now()
	for i := 0; i < 20; i++ {
		r.Write(a, make([]byte, 1<<19))
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("TimeScale 0 still slow: %v", el)
	}
}

func TestSpinBounds(t *testing.T) {
	start := time.Now()
	Spin(50 * time.Microsecond)
	el := time.Since(start)
	if el < 40*time.Microsecond {
		t.Errorf("Spin(50µs) returned after %v", el)
	}
	Spin(0)  // no-op
	Spin(-1) // no-op
}

func TestProfiles(t *testing.T) {
	if DRAMProfile().WriteNanosPerByte != 0 {
		t.Error("DRAM profile should inject no cost")
	}
	nv := NVMProfile()
	if nv.WriteNanosPerByte <= nv.ReadNanosPerByte {
		t.Error("NVM writes should be slower than reads (asymmetry)")
	}
	if nv.WriteLatency < 100*time.Nanosecond {
		t.Error("NVM latency unrealistically low")
	}
}

// TestCountedReadEqualsSingleReads pins the counted charge a search or a
// drain step settles with, loads and stores alike: the counters grow by
// exactly what the same accesses charged one by one add, and the modeled
// delay (read off the debt word, below the pay-out granularity) differs by
// at most the per-call rounding.
func TestCountedReadEqualsSingleReads(t *testing.T) {
	const count, each = 12, 8
	for _, profile := range []Profile{DRAMProfile(), NVMProfile()} {
		for _, dir := range []struct {
			name    string
			single  func(d *Device)
			counted func(d *Device)
			ops     func(c Counters) int64
			latency time.Duration
		}{
			{"read", func(d *Device) { d.OnRead(each) }, func(d *Device) { d.OnReads(count, count*each) },
				func(c Counters) int64 { return c.Reads }, profile.ReadLatency},
			{"write", func(d *Device) { d.OnWrite(each) }, func(d *Device) { d.OnWrites(count, count*each) },
				func(c Counters) int64 { return c.Writes }, profile.WriteLatency},
		} {
			one := NewDevice(vaddr.NewSpace(), profile)
			batched := NewDevice(vaddr.NewSpace(), profile)
			one.SetSimulation(true)
			batched.SetSimulation(true)
			for i := 0; i < count; i++ {
				dir.single(one)
			}
			dir.counted(batched)
			a, b := one.Counters(), batched.Counters()
			if dir.ops(a) != count || a != b {
				t.Errorf("%s %s: one by one %+v, counted %+v", profile.Name, dir.name, a, b)
			}
			da, db := one.debt.Load(), batched.debt.Load()
			if diff := db - da; diff < 0 || diff > count {
				t.Errorf("%s %s: modeled delay %d ns one by one, %d ns counted", profile.Name, dir.name, da, db)
			}
			if dir.latency > 0 && db == 0 {
				t.Errorf("%s %s: counted charge modeled no delay", profile.Name, dir.name)
			}
		}
	}
}
