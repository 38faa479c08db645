package vfs

import (
	"bytes"
	"errors"
	"testing"

	"miodb/internal/nvm"
)

// TestWriterTornWrite verifies that an injected write failure persists
// exactly the torn prefix the plan reports and surfaces the error.
func TestWriterTornWrite(t *testing.T) {
	d := NewDisk(SSDProfile())
	w := d.Create("sst")
	payload := bytes.Repeat([]byte{0xAB}, 100)

	// Budget of 150 bytes: first 100-byte write lands whole, second is
	// torn at 50.
	d.Device().SetFaultPlan(nvm.NewFaultPlan(1).CrashAfterBytes(150))
	n, err := w.Write(payload)
	if err != nil || n != 100 {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err = w.Write(payload)
	if !errors.Is(err, nvm.ErrCrashed) {
		t.Fatalf("second write: want ErrCrashed, got %v", err)
	}
	if n != 50 {
		t.Fatalf("torn prefix: want 50, got %d", n)
	}
	if w.Offset() != 150 {
		t.Fatalf("offset: want 150, got %d", w.Offset())
	}

	// The media holds exactly 150 bytes; reads past the crash fail.
	d.Device().SetFaultPlan(nil)
	r, err := d.Open("sst")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 150 {
		t.Fatalf("file size: want 150, got %d", r.Size())
	}
}

// TestReaderFaults verifies read-side injection surfaces through ReadAt.
func TestReaderFaults(t *testing.T) {
	d := NewDisk(SSDProfile())
	w := d.Create("f")
	if _, err := w.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	r, err := d.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	d.Device().SetFaultPlan(nvm.NewFaultPlan(1).FailReadsEvery(2))
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("first read should pass: %v", err)
	}
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, nvm.ErrInjected) {
		t.Fatalf("second read: want ErrInjected, got %v", err)
	}
}
