package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

func newTestNVM(segSize int) (*Store, *nvm.Device) {
	dev := nvm.NewDevice(vaddr.NewSpace(), nvm.NVMProfile())
	// Region 0 reserves its first word for the nil address; a segment
	// starts at offset 0, so it is never region 0 (the engine's first
	// regions are its manifest and memtable).
	dev.NewRegion(4096)
	return NewNVM(dev, Config{SegmentSize: segSize, GCDeadRatio: 0.5}), dev
}

// val builds a deterministic value of n bytes.
func val(tag string, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = tag[i%len(tag)] + byte(i%7)
	}
	return v
}

func mustAppend(t testing.TB, s *Store, key string, value []byte, seq uint64) Addr {
	t.Helper()
	a, err := s.Append([]byte(key), value, seq)
	if err != nil {
		t.Fatalf("append %q: %v", key, err)
	}
	return a
}

func mustRead(t testing.TB, s *Store, a Addr, key string, value []byte, seq uint64) {
	t.Helper()
	k, v, q, err := s.Read(a)
	if err != nil {
		t.Fatalf("read %+v: %v", a, err)
	}
	if string(k) != key || !bytes.Equal(v, value) || q != seq {
		t.Fatalf("read %+v = (%q, %d bytes, seq %d), want (%q, %d bytes, seq %d)",
			a, k, len(v), q, key, len(value), seq)
	}
}

// walked collects what Walk yields for one segment.
func walked(t testing.TB, s *Store, id uint32) []Addr {
	t.Helper()
	var out []Addr
	if err := s.Walk(id, func(_ []byte, _ uint64, a Addr) bool {
		out = append(out, a)
		return true
	}); err != nil {
		t.Fatalf("walk %d: %v", id, err)
	}
	return out
}

// TestAppendReadRoundTrip: entries of every length modulo the 8-byte grid
// come back intact, and the address round-trips through its 16-byte
// encoding.
func TestAppendReadRoundTrip(t *testing.T) {
	s, _ := newTestNVM(1 << 16)
	t.Run("nvm", func(t *testing.T) {
		type rec struct {
			a     Addr
			key   string
			value []byte
		}
		var recs []rec
		for i := 0; i < 24; i++ {
			key := fmt.Sprintf("key-%03d", i)[:4+i%4]
			value := val(key, 300+i)
			a := mustAppend(t, s, key, value, uint64(100+i))
			if a.Off&7 != 0 || int(a.Len) != entryHeaderSize+len(key)+len(value) {
				t.Fatalf("address %+v is off the grid or mis-sized", a)
			}
			if got, ok := DecodeAddr(a.Encode(nil)); !ok || got != a {
				t.Fatalf("address %+v decodes to %+v, %v", a, got, ok)
			}
			recs = append(recs, rec{a, key, value})
		}
		for i, r := range recs {
			mustRead(t, s, r.a, r.key, r.value, uint64(100+i))
		}
		var n int
		if err := s.Walk(recs[0].a.Seg, func(key []byte, seq uint64, a Addr) bool {
			if a != recs[n].a || string(key) != recs[n].key || seq != uint64(100+n) {
				t.Fatalf("walk entry %d = (%q, %d, %+v)", n, key, seq, a)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Fatalf("walk yielded %d of %d entries", n, len(recs))
		}
		c := s.Counters()
		if c.Appends != int64(len(recs)) || c.LiveBytes != c.AppendedBytes {
			t.Fatalf("counters %+v after %d appends", c, len(recs))
		}
	})
}

func TestReadRejectsBadAddresses(t *testing.T) {
	s, _ := newTestNVM(1 << 16)
	a := mustAppend(t, s, "k", val("v", 100), 1)
	for _, bad := range []Addr{
		{Seg: a.Seg + 1, Off: a.Off, Len: a.Len}, // unknown segment
		{Seg: a.Seg, Off: a.Off, Len: a.Len + 8}, // past the extent
		{Seg: a.Seg, Off: -8, Len: a.Len},
		{Seg: a.Seg, Off: a.Off, Len: entryHeaderSize - 1},
		{Seg: a.Seg, Off: a.Off, Len: a.Len - 8}, // lengths disagree with the header
	} {
		if _, _, _, err := s.Read(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %+v: %v, want ErrCorrupt", bad, err)
		}
	}
	// A flipped value byte fails the checksum.
	g := s.lookup(a.Seg)
	g.region.Bytes(g.region.Base().Add(a.Off), int(a.Len))[a.Len-1] ^= 1
	if _, _, _, err := s.Read(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of a corrupted entry: %v, want ErrCorrupt", err)
	}
}

// TestReadFaultIsCorrupt: segment reads gate on the device's fault plan,
// and an injected read fault reaches Read and Walk as ErrCorrupt that
// keeps its cause, so a transient fault can be retried; a crashed plan
// leaves the frozen media readable.
func TestReadFaultIsCorrupt(t *testing.T) {
	s, dev := newTestNVM(1 << 16)
	a := mustAppend(t, s, "k", val("v", 100), 1)
	dev.SetFaultPlan(nvm.NewFaultPlan(1).FailReadsEvery(1))
	if _, _, _, err := s.Read(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read under a failing plan: %v, want ErrCorrupt", err)
	} else if !errors.Is(err, nvm.ErrInjected) {
		t.Fatalf("read under a failing plan: %v, want the injected fault as its cause", err)
	}
	dev.SetFaultPlan(nvm.NewFaultPlan(1).FailReadsEvery(1).AllTransient())
	if _, _, _, err := s.Read(a); !errors.Is(err, ErrCorrupt) || !nvm.IsTransient(err) {
		t.Fatalf("read under a transient plan: %v, want a transient ErrCorrupt", err)
	}
	if err := s.Walk(a.Seg, func([]byte, uint64, Addr) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("walk under a failing plan: %v, want ErrCorrupt", err)
	}
	dev.SetFaultPlan(nvm.NewFaultPlan(1).CrashAfterWrites(1))
	if out := dev.CheckWrite(8); !errors.Is(out.Err, nvm.ErrCrashed) {
		t.Fatalf("armed crash did not fire: %v", out.Err)
	}
	mustRead(t, s, a, "k", val("v", 100), 1)
}

// TestOversizedEntryGetsOwnSegment: an entry larger than SegmentSize lands
// in a dedicated segment, and the next append opens another.
func TestOversizedEntryGetsOwnSegment(t *testing.T) {
	s, _ := newTestNVM(4 << 10)
	small := mustAppend(t, s, "small", val("s", 100), 1)
	bigValue := val("big", 20<<10)
	big := mustAppend(t, s, "big", bigValue, 2)
	after := mustAppend(t, s, "after", val("a", 100), 3)
	if big.Seg == small.Seg || big.Off != 0 {
		t.Fatalf("oversized entry at %+v shares segment %d", big, small.Seg)
	}
	if after.Seg == big.Seg || after.Seg == small.Seg {
		t.Fatalf("entry after the oversized one landed at %+v", after)
	}
	mustRead(t, s, big, "big", bigValue, 2)
	if got := len(s.Segments()); got != 3 {
		t.Fatalf("%d segments, want 3", got)
	}
}

// TestRollAtSegmentSize: the active segment takes entries until its size
// reaches SegmentSize, the roll seals it, and only sealed segments are
// offered to GC.
func TestRollAtSegmentSize(t *testing.T) {
	const segSize = 4 << 10
	s, _ := newTestNVM(segSize)
	value := val("v", 1000)
	entry := alignUp(int64(entryHeaderSize + 2 + len(value)))
	perSeg := int((segSize + entry - 1) / entry)
	var addrs []Addr
	for i := 0; i < 2*perSeg+1; i++ {
		addrs = append(addrs, mustAppend(t, s, fmt.Sprintf("k%d", i%10), value, uint64(i+1)))
	}
	for i, a := range addrs {
		if want := addrs[0].Seg + uint32(i/perSeg); a.Seg != want {
			t.Fatalf("entry %d in segment %d, want %d", i, a.Seg, want)
		}
	}
	if next := s.NextID(); next != addrs[0].Seg+3 {
		t.Fatalf("next id %d after three segments from %d", next, addrs[0].Seg)
	}
	// Everything dead: the two rolled-past segments qualify, the active one
	// (not full, not sealed) never does.
	for _, a := range addrs {
		s.MarkDead(a)
	}
	seen := map[uint32]bool{}
	for {
		id, ok := s.PickGC()
		if !ok {
			break
		}
		seen[id] = true
		if !s.Condemn(id) {
			t.Fatalf("picked segment %d could not be condemned", id)
		}
	}
	if len(seen) != 2 || seen[addrs[len(addrs)-1].Seg] {
		t.Fatalf("GC was offered %v; the active segment is %d", seen, addrs[len(addrs)-1].Seg)
	}
}

func TestCondemnOnce(t *testing.T) {
	s, _ := newTestNVM(1 << 12)
	a := mustAppend(t, s, "k", val("v", 100), 1)
	s.SealActive()
	if !s.Condemn(a.Seg) {
		t.Fatal("first Condemn refused")
	}
	if s.Condemn(a.Seg) {
		t.Fatal("second Condemn of one segment succeeded")
	}
	if s.Condemn(a.Seg + 1) {
		t.Fatal("Condemn of an unknown segment succeeded")
	}
	if c := s.Counters(); c.GCSegmentsReclaimed != 1 || c.GCReclaimedBytes != alignUp(int64(a.Len)) {
		t.Fatalf("counters after one condemn: %+v", c)
	}
	// Condemned is not freed: the entry still resolves.
	mustRead(t, s, a, "k", val("v", 100), 1)
}

// TestMarkDeadIdempotent: however often one address is reported, it counts
// once, so live bytes are exact; and on a segment this store created the
// walk passes over marked entries.
func TestMarkDeadIdempotent(t *testing.T) {
	s, _ := newTestNVM(1 << 16)
	var addrs []Addr
	var total int64
	for i := 0; i < 10; i++ {
		a := mustAppend(t, s, fmt.Sprintf("key%d", i), val("v", 200+i), uint64(i+1))
		addrs = append(addrs, a)
		total += int64(a.Len)
	}
	var dead int64
	for _, i := range []int{1, 4, 4, 7, 1, 4} {
		s.MarkDead(addrs[i])
	}
	for _, i := range []int{1, 4, 7} {
		dead += int64(addrs[i].Len)
	}
	if got := s.Counters().LiveBytes; got != total-dead {
		t.Fatalf("live bytes %d after double marks, want exactly %d", got, total-dead)
	}
	// Marks that name no entry slot change nothing.
	s.MarkDead(Addr{Seg: addrs[0].Seg, Off: addrs[0].Off + 4, Len: 100})
	s.MarkDead(Addr{Seg: addrs[0].Seg, Off: 1 << 30, Len: 100})
	s.MarkDead(Addr{Seg: addrs[0].Seg, Off: -8, Len: 100})
	s.MarkDead(Addr{Seg: addrs[0].Seg + 9, Off: 0, Len: 100})
	if got := s.Counters().LiveBytes; got != total-dead {
		t.Fatalf("live bytes %d after bogus marks, want %d", got, total-dead)
	}

	got := walked(t, s, addrs[0].Seg)
	var want []Addr
	for i, a := range addrs {
		if i != 1 && i != 4 && i != 7 {
			want = append(want, a)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("walk yielded %v, want the unmarked %v", got, want)
	}
}

// TestAttachRebuildsExtentAndDistrustsMarks: a recovered segment gets its
// extent from the checksum scan and counts dead marks exactly, but the
// walk still yields marked entries — after a recovery a drop report is not
// proof of death.
func TestAttachRebuildsExtentAndDistrustsMarks(t *testing.T) {
	s, dev := newTestNVM(1 << 16)
	var addrs []Addr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, mustAppend(t, s, fmt.Sprintf("key%d", i), val("v", 301+i), uint64(i+1)))
	}
	last := addrs[len(addrs)-1]
	extent := last.Off + alignUp(int64(last.Len))
	region := s.lookup(addrs[0].Seg).region

	re := NewNVM(dev, s.Config())
	re.Attach(7, region)
	if c := re.Counters(); c.Segments != 1 || c.SegmentBytes != extent || c.LiveBytes != extent {
		t.Fatalf("attached counters %+v, want extent %d all live", c, extent)
	}
	if re.NextID() != 8 {
		t.Fatalf("next id %d after attaching segment 7", re.NextID())
	}
	moved := func(a Addr) Addr { a.Seg = 7; return a }
	for i, a := range addrs {
		mustRead(t, re, moved(a), fmt.Sprintf("key%d", i), val("v", 301+i), uint64(i+1))
	}
	re.MarkDead(moved(addrs[2]))
	re.MarkDead(moved(addrs[2]))
	if got := re.Counters().LiveBytes; got != extent-int64(addrs[2].Len) {
		t.Fatalf("live bytes %d after a double mark on an attached segment, want %d", got, extent-int64(addrs[2].Len))
	}
	if got := walked(t, re, 7); len(got) != len(addrs) {
		t.Fatalf("walk of an attached segment yielded %d of %d entries: a mark was trusted", len(got), len(addrs))
	}
	// Attached segments are sealed: the next append opens segment 8.
	if a := mustAppend(t, re, "new", val("n", 100), 9); a.Seg != 8 {
		t.Fatalf("append after Attach went to segment %d", a.Seg)
	}
}

func TestFreeThenRead(t *testing.T) {
	s, dev := newTestNVM(1 << 12)
	a := mustAppend(t, s, "k", val("v", 100), 1)
	region := s.lookup(a.Seg).region
	s.Free(a.Seg)
	if _, _, _, err := s.Read(a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read after Free: %v, want ErrCorrupt", err)
	}
	if err := s.Walk(a.Seg, func([]byte, uint64, Addr) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("walk after Free: %v, want ErrCorrupt", err)
	}
	if !region.Released() || dev.Space().Region(region.Index()) != nil {
		t.Fatal("Free left the segment's region in the space")
	}
	s.Free(a.Seg) // a second Free is a no-op
	s.MarkDead(a) // and so is a mark for a reclaimed segment
	b := mustAppend(t, s, "k2", val("w", 100), 2)
	if b.Seg == a.Seg {
		t.Fatalf("segment id %d reused after Free", a.Seg)
	}
}

// TestTornAppendInPlace: an append the fault plan tears leaves exactly its
// first Torn bytes on the media, seals the segment with its extent where
// it was, and recovery's checksum scan stops in front of the torn entry.
func TestTornAppendInPlace(t *testing.T) {
	for _, torn := range []int{0, 7, entryHeaderSize, entryHeaderSize + 3 + 100} {
		t.Run(fmt.Sprint(torn), func(t *testing.T) {
			s, dev := newTestNVM(1 << 16)
			var addrs []Addr
			for i := 0; i < 3; i++ {
				addrs = append(addrs, mustAppend(t, s, fmt.Sprintf("key%d", i), val("v", 500), uint64(i+1)))
			}
			last := addrs[2]
			extent := last.Off + alignUp(int64(last.Len))
			g := s.lookup(last.Seg)

			key, value := []byte("bad"), val("torn", 1000)
			entryLen := entryHeaderSize + len(key) + len(value)
			dev.SetFaultPlan(nvm.NewFaultPlan(1).CrashAfterBytes(int64(torn)))
			if _, err := s.Append(key, value, 9); !errors.Is(err, nvm.ErrCrashed) {
				t.Fatalf("torn append: %v, want ErrCrashed", err)
			}
			dev.SetFaultPlan(nil)

			want := make([]byte, entryLen)
			encodeEntry(want, key, value, 9)
			clear(want[torn:])
			// The tail was never allocated when nothing reached the media.
			if torn > 0 {
				got := g.region.Bytes(g.region.Base().Add(extent), entryLen)
				if !bytes.Equal(got, want) {
					t.Fatalf("media holds something other than the first %d bytes of the entry", torn)
				}
			}
			if !g.sealed.Load() || g.size.Load() != extent {
				t.Fatalf("after a torn append: sealed=%v size=%d, want sealed at %d", g.sealed.Load(), g.size.Load(), extent)
			}
			if got := walked(t, s, last.Seg); fmt.Sprint(got) != fmt.Sprint(addrs) {
				t.Fatalf("walk yielded %v, want the three whole entries", got)
			}
			if a := mustAppend(t, s, "next", val("n", 100), 10); a.Seg == last.Seg {
				t.Fatal("append after a torn write reused the sealed segment")
			}
			if c := s.Counters(); c.Appends != 4 {
				t.Fatalf("%d appends counted, want 4 (the torn one is not one)", c.Appends)
			}

			re := NewNVM(dev, s.Config())
			re.Attach(last.Seg, g.region)
			if c := re.Counters(); c.SegmentBytes != extent {
				t.Fatalf("recovered extent %d, want %d: the scan did not stop at the torn entry", c.SegmentBytes, extent)
			}
			for i, a := range addrs {
				mustRead(t, re, a, fmt.Sprintf("key%d", i), val("v", 500), uint64(i+1))
			}
		})
	}
}

// TestNewSegmentAnnouncementFailure: a segment the engine refuses to log
// is uninstalled and the append fails, but its region stays allocated: a
// manifest snapshot rolled between install and announcement may name it.
func TestNewSegmentAnnouncementFailure(t *testing.T) {
	s, dev := newTestNVM(1 << 12)
	refuse := errors.New("manifest full")
	var announced uint32
	s.OnNewSegment = func(_ uint32, region uint32) error {
		announced = region
		return refuse
	}
	if _, err := s.Append([]byte("k"), val("v", 100), 1); !errors.Is(err, refuse) {
		t.Fatalf("append with a refused segment: %v", err)
	}
	if len(s.Segments()) != 0 {
		t.Fatalf("refused segment still installed: %v", s.Segments())
	}
	if r := dev.Space().Region(announced); r == nil || r.Released() {
		t.Fatalf("refused segment's region %d was released", announced)
	}
	s.OnNewSegment = nil
	mustAppend(t, s, "k", val("v", 100), 2)
}

// TestAppendAllocatesNothing: the NVM append encodes in place — no staging
// buffer, no lock, no heap object for a 4 KB value.
func TestAppendAllocatesNothing(t *testing.T) {
	s, _ := newTestNVM(64 << 20)
	key, value := []byte("user000000012345"), val("v", 4<<10)
	mustAppend(t, s, "warm", value, 1) // the first append creates the segment
	seq := uint64(1)
	if n := testing.AllocsPerRun(200, func() {
		seq++
		if _, err := s.Append(key, value, seq); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("NVM append of a 4 KB value allocates %v objects, want 0", n)
	}
}

// TestAppendChargesDeviceOnce: one write of exactly the entry's length per
// append — what write amplification is computed from.
func TestAppendChargesDeviceOnce(t *testing.T) {
	s, dev := newTestNVM(1 << 20)
	mustAppend(t, s, "warm", val("v", 64), 1)
	before := dev.Counters()
	a := mustAppend(t, s, "key", val("v", 4<<10), 2)
	after := dev.Counters()
	if after.Writes-before.Writes != 1 || after.BytesWritten-before.BytesWritten != int64(a.Len) {
		t.Fatalf("append charged %d writes, %d bytes; want 1 write of %d bytes",
			after.Writes-before.Writes, after.BytesWritten-before.BytesWritten, a.Len)
	}
}

// TestWalkReadsKeysOnly: the device sees a header per entry and a key per
// entry yielded — never a value.
func TestWalkReadsKeysOnly(t *testing.T) {
	s, dev := newTestNVM(1 << 20)
	var addrs []Addr
	for i := 0; i < 10; i++ {
		addrs = append(addrs, mustAppend(t, s, fmt.Sprintf("key%02d", i), val("v", 4<<10), uint64(i+1)))
	}
	for _, a := range addrs[:9] {
		s.MarkDead(a)
	}
	before := dev.Counters()
	if got := walked(t, s, addrs[0].Seg); len(got) != 1 || got[0] != addrs[9] {
		t.Fatalf("walk yielded %v, want only the unmarked %v", got, addrs[9])
	}
	after := dev.Counters()
	if reads, n := after.Reads-before.Reads, after.BytesRead-before.BytesRead; reads != 11 || n != 10*entryHeaderSize+5 {
		t.Fatalf("walk of 10 entries (9 marked) made %d reads of %d bytes, want 11 reads of %d", reads, n, 10*entryHeaderSize+5)
	}
}

// TestConcurrentMarksWalksAndAppends: the appender, several markers
// reporting the same addresses, a walker and PickGC share a store the way
// the engine's commit path, compaction hooks and collector do; live bytes
// come out exact. Run under -race.
func TestConcurrentMarksWalksAndAppends(t *testing.T) {
	s, _ := newTestNVM(16 << 10)
	const entries, markers = 400, 4
	value := val("v", 500)
	addrs := make(chan Addr, entries) // sized to the sends: the appender never blocks
	var feeds [markers]chan Addr
	for i := range feeds {
		feeds[i] = make(chan Addr, entries)
	}
	var wg sync.WaitGroup
	var total int64
	wg.Add(1)
	go func() { // the serialized appender
		defer wg.Done()
		defer close(addrs)
		for i := 0; i < entries; i++ {
			a, err := s.Append([]byte(fmt.Sprintf("key%04d", i)), value, uint64(i+1))
			if err != nil {
				t.Error(err)
				return
			}
			total += int64(a.Len)
			addrs <- a
		}
	}()
	wg.Add(1)
	go func() { // fan every second address out to all markers
		defer wg.Done()
		i := 0
		for a := range addrs {
			if i%2 == 0 {
				for _, f := range feeds {
					f <- a
				}
			}
			i++
		}
		for _, f := range feeds {
			close(f)
		}
	}()
	for _, f := range feeds {
		wg.Add(1)
		go func(f chan Addr) {
			defer wg.Done()
			for a := range f {
				s.MarkDead(a)
			}
		}(f)
	}
	stop := make(chan struct{})
	var walker sync.WaitGroup
	walker.Add(1)
	go func() {
		defer walker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.PickGC()
			for _, id := range s.Segments() {
				var end int64
				if err := s.Walk(id, func(_ []byte, _ uint64, a Addr) bool {
					if a.Off < end {
						t.Errorf("walk went backwards in segment %d", id)
					}
					end = a.Off + int64(a.Len)
					return true
				}); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	walker.Wait()
	if t.Failed() {
		return
	}
	dead := int64(entries / 2 * (entryHeaderSize + 7 + len(value)))
	if c := s.Counters(); c.LiveBytes != total-dead {
		t.Fatalf("live bytes %d after %d markers reported %d addresses each, want %d", c.LiveBytes, markers, entries/2, total-dead)
	}
	var yielded int
	for _, id := range s.Segments() {
		yielded += len(walked(t, s, id))
	}
	if yielded != entries/2 {
		t.Fatalf("walks yielded %d entries, want the %d unmarked", yielded, entries/2)
	}
}
