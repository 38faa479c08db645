package vlog

import (
	"bytes"
	"testing"

	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// segmentImage returns the raw bytes of a small segment: three entries,
// and with torn set a fourth cut off mid-value.
func segmentImage(torn bool) []byte {
	s, dev := newTestNVM(1 << 14)
	s.Append([]byte("alpha"), val("a", 100), 1)
	s.Append([]byte("be"), val("b", 333), 2)
	s.Append([]byte("gamma-gamma"), val("c", 7), 3)
	if torn {
		dev.SetFaultPlan(nvm.NewFaultPlan(1).CrashAfterBytes(61))
		s.Append([]byte("torn-victim"), val("t", 200), 4)
	}
	region := s.lookup(0).region
	return append([]byte(nil), region.Bytes(region.Base(), int(region.Size()))...)
}

// FuzzDecodeEntry: arbitrary bytes never panic the decoder, and whatever
// it accepts is byte for byte what encodeEntry writes — so its checksum
// holds.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not an entry, not even close"))
	f.Add(make([]byte, entryHeaderSize))
	img := segmentImage(false)
	f.Add(img[:entryHeaderSize+5+100])
	f.Add(img)
	f.Fuzz(func(t *testing.T, data []byte) {
		key, value, seq, err := decodeEntry(data, Addr{Len: uint32(len(data))})
		if err != nil {
			return
		}
		again := make([]byte, len(data))
		encodeEntry(again, key, value, seq)
		if !bytes.Equal(again, data) {
			t.Fatalf("decoder accepted %d bytes that do not re-encode to themselves", len(data))
		}
	})
}

// FuzzSegmentWalk: arbitrary bytes in a recovered region never panic
// Attach or Walk, the rebuilt extent stays inside the region, and every
// entry the walk yields passes Read's checksum with the same key and seq.
func FuzzSegmentWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage where a segment should be, more than one header long"))
	f.Add(segmentImage(false))
	f.Add(segmentImage(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 1 << 14
		if len(data) > chunk {
			data = data[:chunk]
		}
		dev := nvm.NewDevice(vaddr.NewSpace(), nvm.NVMProfile())
		dev.NewRegion(4096) // region 0 reserves its first word
		region := dev.NewRegion(chunk)
		if len(data) > 0 {
			a, err := region.Alloc(len(data))
			if err != nil {
				t.Fatal(err)
			}
			region.Write(a, data)
		}
		s := NewNVM(dev, Config{SegmentSize: chunk, GCDeadRatio: 0.5})
		s.Attach(3, region)
		c := s.Counters()
		if c.SegmentBytes < 0 || c.SegmentBytes > region.Size() || c.LiveBytes != c.SegmentBytes {
			t.Fatalf("attached extent %d (live %d) over a region of %d bytes", c.SegmentBytes, c.LiveBytes, region.Size())
		}
		var end int64
		err := s.Walk(3, func(key []byte, seq uint64, a Addr) bool {
			if a.Off != end {
				t.Fatalf("walk jumped from %d to %d", end, a.Off)
			}
			k, _, q, err := s.Read(a)
			if err != nil {
				t.Fatalf("walk yielded %+v, which Read rejects: %v", a, err)
			}
			if !bytes.Equal(k, key) || q != seq {
				t.Fatalf("walk and Read disagree at %+v", a)
			}
			s.MarkDead(a)
			end = a.Off + alignUp(int64(a.Len))
			return true
		})
		if err != nil {
			t.Fatalf("walk inside a validated extent: %v", err)
		}
		if end != c.SegmentBytes {
			t.Fatalf("walk covered %d of an extent of %d bytes", end, c.SegmentBytes)
		}
		if live := s.Counters().LiveBytes; live < 0 {
			t.Fatalf("live bytes %d after marking every entry once", live)
		}
	})
}
