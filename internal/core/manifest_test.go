package core

import (
	"bytes"
	"testing"

	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// TestManifestScanPastRepairedChunkHeads tears manifest appends, repairs
// each tear as Recover does, appends once more and replays: the last
// record must come back. A torn record that opened a chunk (a record too
// big for the rest of its chunk spills to the next one) leaves a zeroed
// chunk head once repaired, and the repair's padding puts the next
// append at the following chunk's head, so the scan has to probe past
// zeroed chunk heads up to the allocation edge, not stop at the second.
func TestManifestScanPastRepairedChunkHeads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int // payload bytes of every record
		tears int // torn appends, each repaired, before the last append
	}{
		{"torn mid-chunk", 1 << 10, 1},
		{"torn chunk head", 600 << 10, 1},
		{"two torn chunk heads", 600 << 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvm.NewDevice(vaddr.NewSpace(), nvm.NVMProfile())
			m := newManifestLog(dev)
			scanFrom := m.region().Size() // past the space's nil-address word
			record := func(b byte) []byte { return bytes.Repeat([]byte{b}, tc.size) }
			if err := m.append(record(1)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.tears; i++ {
				dev.SetFaultPlan(nvm.NewFaultPlan(1).CrashAfterBytes(100))
				if err := m.append(record(0xee)); err == nil {
					t.Fatal("append under a crash plan succeeded")
				}
				dev.SetFaultPlan(nil)
				m = attachManifestLog(dev, m.region())
				tornAt, torn, err := m.scan(scanFrom, func([]byte) error { return nil })
				if err != nil || !torn {
					t.Fatalf("tear %d: scan reported torn=%v, %v", i, torn, err)
				}
				if err := m.repairTornTail(tornAt); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.append(record(2)); err != nil {
				t.Fatal(err)
			}

			var got []byte
			_, torn, err := attachManifestLog(dev, m.region()).scan(scanFrom, func(p []byte) error {
				got = append(got, p[0])
				return nil
			})
			if err != nil || torn {
				t.Fatalf("replay: torn=%v, %v", torn, err)
			}
			if !bytes.Equal(got, []byte{1, 2}) {
				t.Fatalf("replayed records %v, want [1 2]: the scan stopped before the last append", got)
			}
		})
	}
}
