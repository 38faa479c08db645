package vlog

import (
	"fmt"
	"testing"
)

// BenchmarkAppend: one 4 KB value into an NVM segment — reserve, one
// device charge, encode in place, checksum. Rolls (a chunk allocation
// each) happen with the clock stopped, so B/op is the append's own.
func BenchmarkAppend(b *testing.B) {
	key, value := []byte("user000000012345"), val("v", 4<<10)
	entry := int(alignUp(int64(entryHeaderSize + len(key) + len(value))))
	const perSeg = 4096
	s, _ := newTestNVM(perSeg * entry)
	b.SetBytes(int64(entry))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(perSeg-1) == 0 {
			// Drop the full segment, so memory stays flat at any b.N, and
			// open the next one.
			b.StopTimer()
			for _, id := range s.Segments() {
				s.Free(id)
			}
			mustAppend(b, s, "roll", value, 0)
			b.StartTimer()
		}
		if _, err := s.Append(key, value, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCScan: the collector's walk over one sealed segment of 4 KB
// entries, nine in ten already marked dead — the state vlog-large's
// victims are in. Reported per entry of the segment.
func BenchmarkGCScan(b *testing.B) {
	const entries = 1000
	value := val("v", 4<<10)
	s, _ := newTestNVM(entries * (len(value) + 64))
	var seg uint32
	for i := 0; i < entries; i++ {
		a := mustAppend(b, s, fmt.Sprintf("user%012d", i), value, uint64(i+1))
		seg = a.Seg
		if i%10 != 0 {
			s.MarkDead(a)
		}
	}
	s.SealActive()
	b.ReportAllocs()
	b.ResetTimer()
	var yielded int
	for i := 0; i < b.N; i += entries {
		if err := s.Walk(seg, func(key []byte, _ uint64, _ Addr) bool {
			yielded += len(key) / 16
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	if b.N >= entries && yielded == 0 {
		b.Fatal("walk yielded nothing")
	}
}
