// Package vfs models the block-storage side of the storage hierarchy: an
// in-memory file system whose reads and writes are charged against a
// device performance profile. Two profiles matter here:
//
//   - an SSD profile (~80 µs access latency, ~0.5 GB/s writes, ~2 GB/s
//     reads) for the paper's DRAM-NVM-SSD experiments (§5.4), and
//   - an NVM-as-block-device profile for the "in-memory mode" baselines,
//     which keep block-format SSTables on NVM (§5: "all SSTables in
//     NoveLSM and MatrixKV are stored in NVM without using SSD").
//
// Unlike the byte-addressable nvm.Device, data here is only reachable
// through explicit file reads/writes — which is exactly why the baselines
// pay serialization and deserialization costs that MioDB avoids.
package vfs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"miodb/internal/nvm"
)

// SSDProfile models a datacenter NVMe SSD.
func SSDProfile() nvm.Profile {
	return nvm.Profile{
		Name:              "ssd",
		ReadLatency:       80 * time.Microsecond,
		WriteLatency:      30 * time.Microsecond, // absorbed by device write cache
		ReadNanosPerByte:  0.5,                   // ≈ 2.0 GB/s
		WriteNanosPerByte: 2.0,                   // ≈ 0.5 GB/s
	}
}

// NVMBlockProfile models NVM accessed through a block/file interface, as
// the baselines use it for SSTables in the in-memory mode: NVM speed, but
// only via explicit I/O.
func NVMBlockProfile() nvm.Profile {
	p := nvm.NVMProfile()
	p.Name = "nvm-block"
	return p
}

// Disk is a simulated block device holding named files. Its latency,
// traffic counters and fault plan are its nvm.Device's: a device with no
// address space, charged by every Write, Sync and ReadAt.
type Disk struct {
	dev *nvm.Device

	mu    sync.Mutex
	files map[string]*file
}

type file struct {
	mu   sync.RWMutex
	data []byte
}

// NewDisk creates an empty disk with the given profile. Latency simulation
// starts disabled, as on every nvm.Device.
func NewDisk(profile nvm.Profile) *Disk {
	return &Disk{dev: nvm.NewDevice(nil, profile), files: map[string]*file{}}
}

// Device returns the device that meters, delays and fails the disk's I/O.
func (d *Disk) Device() *nvm.Device { return d.dev }

// Create creates (or truncates) a file and returns a sequential writer.
func (d *Disk) Create(name string) *Writer {
	d.mu.Lock()
	f := &file{}
	d.files[name] = f
	d.mu.Unlock()
	return &Writer{disk: d, f: f}
}

// Open returns a random-access reader for the named file.
func (d *Disk) Open(name string) (*Reader, error) {
	d.mu.Lock()
	f, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("vfs: file %q not found", name)
	}
	return &Reader{disk: d, f: f}, nil
}

// Remove deletes a file (obsolete SSTables after compaction).
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
}

// List returns the file names in sorted order.
func (d *Disk) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Writer appends to a file sequentially. Not safe for concurrent use.
type Writer struct {
	disk *Disk
	f    *file
	off  int64
}

// Write appends p, charging bandwidth. The disk is unbounded, so writes
// only fail under fault injection: an injected failure may leave a torn
// prefix of p on the media (per the plan's WriteOutcome) before
// returning the error — the partial state recovery must tolerate.
func (w *Writer) Write(p []byte) (int, error) {
	out := w.disk.dev.CheckWrite(len(p))
	n := len(p)
	if out.Err != nil {
		n = max(out.Torn, 0)
	}
	if n > 0 {
		w.disk.dev.OnWrites(0, n)
		w.f.mu.Lock()
		w.f.data = append(w.f.data, p[:n]...)
		w.f.mu.Unlock()
		w.off += int64(n)
	}
	return n, out.Err
}

// Offset returns the bytes written so far (the current file size).
func (w *Writer) Offset() int64 { return w.off }

// Sync charges one device write of no bytes, modeling the flush of
// buffered data to stable media.
func (w *Writer) Sync() { w.disk.dev.OnWrites(1, 0) }

// Reader reads a file at arbitrary offsets. Safe for concurrent use.
type Reader struct {
	disk *Disk
	f    *file
}

// Size returns the current file size.
func (r *Reader) Size() int64 {
	r.f.mu.RLock()
	defer r.f.mu.RUnlock()
	return int64(len(r.f.data))
}

// ReadAt fills p from the given offset, charging one access latency plus
// bandwidth — the block-granularity cost MioDB's byte-addressable design
// avoids.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if err := r.disk.dev.CheckRead(len(p)); err != nil {
		return 0, err
	}
	r.disk.dev.OnReads(1, len(p))
	r.f.mu.RLock()
	defer r.f.mu.RUnlock()
	if off < 0 || off > int64(len(r.f.data)) {
		return 0, fmt.Errorf("vfs: read at %d past size %d", off, len(r.f.data))
	}
	n := copy(p, r.f.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("vfs: short read (%d of %d)", n, len(p))
	}
	return n, nil
}
