package vfs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestCreateWriteRead(t *testing.T) {
	d := NewDisk(SSDProfile())
	w := d.Create("a.sst")
	payload := bytes.Repeat([]byte("abc"), 1000)
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if w.Offset() != int64(len(payload)) {
		t.Errorf("Offset = %d", w.Offset())
	}
	w.Sync()

	r, err := d.Open("a.sst")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(payload)) {
		t.Errorf("Size = %d", r.Size())
	}
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[500:600]) {
		t.Error("ReadAt returned wrong bytes")
	}
	// Out-of-range reads fail.
	if _, err := r.ReadAt(buf, int64(len(payload))-50); err == nil {
		t.Error("short read not reported")
	}
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestOpenMissingAndRemove(t *testing.T) {
	d := NewDisk(SSDProfile())
	if _, err := d.Open("nope"); err == nil {
		t.Error("Open of missing file succeeded")
	}
	d.Create("x")
	d.Create("y")
	if got := d.List(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("List = %v", got)
	}
	d.Remove("x")
	if got := d.List(); len(got) != 1 || got[0] != "y" {
		t.Errorf("List after Remove = %v", got)
	}
	// Readers opened before Remove keep working (compaction semantics).
	w := d.Create("z")
	w.Write([]byte("data"))
	r, _ := d.Open("z")
	d.Remove("z")
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 0); err != nil || string(buf) != "data" {
		t.Error("reader broken after Remove")
	}
}

func TestCountersAndTotalSize(t *testing.T) {
	d := NewDisk(NVMBlockProfile())
	dev := d.Device()
	w := d.Create("f")
	w.Write(make([]byte, 1000))
	r, _ := d.Open("f")
	r.ReadAt(make([]byte, 400), 0)
	c := dev.Counters()
	if c.BytesWritten != 1000 || c.BytesRead != 400 {
		t.Errorf("counters = %+v", c)
	}
	dev.ResetCounters()
	if c := dev.Counters(); c.BytesWritten != 0 || c.BytesRead != 0 {
		t.Error("ResetCounters did not zero")
	}
}

// TestTrafficIsTheDevices: a disk's traffic is its device's. A Write
// counts its bytes but no op, a Sync one write and no bytes, a ReadAt one
// read and its bytes.
func TestTrafficIsTheDevices(t *testing.T) {
	d := NewDisk(SSDProfile())
	dev := d.Device()
	w := d.Create("f")
	w.Write(make([]byte, 300))
	if c := dev.Counters(); c.Writes != 0 || c.BytesWritten != 300 {
		t.Fatalf("after Write: %+v, want 0 writes, 300 bytes", c)
	}
	w.Sync()
	if c := dev.Counters(); c.Writes != 1 || c.BytesWritten != 300 {
		t.Fatalf("after Sync: %+v, want 1 write, 300 bytes", c)
	}
	r, _ := d.Open("f")
	r.ReadAt(make([]byte, 100), 0)
	r.ReadAt(make([]byte, 50), 100)
	if c := dev.Counters(); c.Reads != 2 || c.BytesRead != 150 {
		t.Fatalf("after two ReadAts: %+v, want 2 reads, 150 bytes", c)
	}
	if c := dev.Counters(); c.Name != "ssd" {
		t.Fatalf("device name %q, want the profile's", c.Name)
	}
}

func TestLatencyInjection(t *testing.T) {
	d := NewDisk(SSDProfile()) // 80 µs read latency
	w := d.Create("f")
	w.Write(make([]byte, 64))
	r, _ := d.Open("f")

	// Without simulation: fast.
	start := time.Now()
	for i := 0; i < 10; i++ {
		r.ReadAt(make([]byte, 64), 0)
	}
	fast := time.Since(start)

	d.Device().SetSimulation(true)
	start = time.Now()
	for i := 0; i < 10; i++ {
		r.ReadAt(make([]byte, 64), 0)
	}
	slow := time.Since(start)
	if slow < 10*80*time.Microsecond/2 {
		t.Errorf("simulated reads took %v, expected ≥ ~400µs", slow)
	}
	if slow < fast {
		t.Error("simulation did not slow reads down")
	}

	// TimeScale 0 disables delays again.
	d.Device().SetTimeScale(0)
	start = time.Now()
	for i := 0; i < 10; i++ {
		r.ReadAt(make([]byte, 64), 0)
	}
	if rescaled := time.Since(start); rescaled > slow {
		t.Error("TimeScale 0 did not disable delays")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDisk(NVMBlockProfile())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			w := d.Create(name)
			for i := 0; i < 100; i++ {
				w.Write([]byte{byte(i)})
			}
			r, err := d.Open(name)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 100)
			if _, err := r.ReadAt(buf, 0); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if len(d.List()) != 4 {
		t.Errorf("List = %v", d.List())
	}
}
