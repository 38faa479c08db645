package pmtable

import (
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// The metering contract of a drain (DESIGN.md §1): a merge step, an
// absorbed entry and a flush's swizzle tally their loads and stores and
// settle with the device once, outside any reader-visible window, and the
// device's counters cannot tell.

// calledDevice forwards to a device and counts the trips made to it and
// the bytes written through it.
type calledDevice struct {
	*nvm.Device
	calls   int
	written int
}

func (c *calledDevice) OnRead(n int)         { c.calls++; c.Device.OnRead(n) }
func (c *calledDevice) OnReads(count, n int) { c.calls++; c.Device.OnReads(count, n) }
func (c *calledDevice) OnWrite(n int)        { c.calls++; c.written += n; c.Device.OnWrite(n) }
func (c *calledDevice) OnWrites(count, n int) {
	c.calls++
	c.written += n
	c.Device.OnWrites(count, n)
}

// eachAccess is the same meter asking every tally to charge it access by
// access: the reference a tallied drain's totals are held to.
type eachAccess struct{ *calledDevice }

func (eachAccess) ChargeEachAccess() {}

// TestDrainChargeIsExact runs one seeded swizzle, merge and absorb twice —
// settling after every access, and once per step — and requires identical
// Reads, BytesRead, Writes and BytesWritten after each, on a DRAM and on
// an NVM device.
func TestDrainChargeIsExact(t *testing.T) {
	for _, profile := range []nvm.Profile{nvm.DRAMProfile(), nvm.NVMProfile()} {
		type stage struct {
			name     string
			counters nvm.Counters
			calls    int
		}
		run := func(perAccess bool) []stage {
			space := vaddr.NewSpace()
			dev := &calledDevice{Device: nvm.NewDevice(space, profile)}
			var meter vaddr.Meter = dev
			if perAccess {
				meter = eachAccess{dev}
			}
			var stages []stage
			end := func(name string) {
				stages = append(stages, stage{name, dev.Counters(), dev.calls})
			}
			rnd := rand.New(rand.NewSource(11))

			// Swizzle: a memtable's arena cloned onto the meter, then the
			// pointer pass of a one-piece flush.
			dram := nvm.NewDevice(space, nvm.DRAMProfile())
			mt, err := memtable.New(dram, 1<<30, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range randomVersions(rnd, 300, 120, 1) {
				if err := mt.Add([]byte(v.key), []byte(v.value), v.seq, v.kind); err != nil {
					t.Fatal(err)
				}
			}
			clone := space.Clone(mt.Region(), meter)
			skiplist.Swizzle(clone, mt.Region(), mt.List().Head())
			end("swizzle")

			// Merge, mark persisted, under a horizon so duplicates are both
			// dropped and retained.
			old := linkVersions(t, space, meter, 1, randomVersions(rnd, 300, 120, 1))
			newer := linkVersions(t, space, meter, 2, randomVersions(rnd, 300, 120, newSeqBase))
			slotRegion := space.NewRegion(4096, meter)
			slot, _ := slotRegion.Alloc(8)
			end("build")
			m := NewMerge(newer, old)
			m.SetPersistSlot(slotRegion, slot)
			m.Drop = func(newerSeq uint64) bool { return newerSeq%3 != 0 }
			m.Dead = func(_ []byte, seq uint64, _ keys.Kind) bool { return seq%7 == 0 }
			m.OnDrop = func([]byte, keys.Kind) {}
			merged := m.Run()
			end("merge")

			// Absorb the merged table, then a newer one over it.
			region := space.NewRegion(1<<20, meter)
			list, err := skiplist.New(region)
			if err != nil {
				t.Fatal(err)
			}
			repo := &Repository{region: region, list: list}
			policy := AbsorbPolicy{
				Drop:   func(newerSeq uint64) bool { return newerSeq%4 != 0 },
				Skip:   func(_ []byte, seq uint64, _ keys.Kind) bool { return seq%9 == 0 },
				OnDrop: func([]byte, keys.Kind) {},
			}
			for i, tbl := range []*Table{merged, linkVersions(t, space, meter, 3, randomVersions(rnd, 300, 120, 2*newSeqBase))} {
				if err := repo.AbsorbWith(tbl, policy); err != nil {
					t.Fatal(err)
				}
				end(fmt.Sprintf("absorb %d", i+1))
			}
			return stages
		}

		each, tallied := run(true), run(false)
		for i := range each {
			e, s := each[i], tallied[i]
			if e.counters != s.counters {
				t.Errorf("%s, after %s: per access %+v, per step %+v", profile.Name, e.name, e.counters, s.counters)
			}
		}
		last := len(each) - 1
		if c := each[last].counters; int64(each[last].calls) != c.Reads+c.Writes {
			t.Errorf("%s: the per-access run made %d device calls for %d accesses", profile.Name, each[last].calls, c.Reads+c.Writes)
		}
		// Building the lists is the same node-by-node insert in both runs;
		// what must shrink is the drains' share.
		drainCalls := func(s []stage) int { return s[0].calls + s[last].calls - s[1].calls }
		if e, s := drainCalls(each), drainCalls(tallied); s*4 > e {
			t.Errorf("%s: %d device calls per access, %d per step: the drains still charge per access", profile.Name, e, s)
		}
	}
}

// windowMeter fails the test if the device is visited while the merge it
// watches is inside a migration window: seqlock odd, or its mutex held.
type windowMeter struct {
	t           *testing.T
	m           *Merge
	settlements int
}

func (w *windowMeter) check() {
	if w.m == nil {
		return
	}
	w.settlements++
	if pos := w.m.pos.Load(); pos&1 == 1 {
		w.t.Fatalf("device charged inside a migration window (pos %d)", pos)
	}
	if !w.m.mu.TryLock() {
		w.t.Fatal("device charged under Merge.mu")
	}
	w.m.mu.Unlock()
}

func (w *windowMeter) OnRead(int)        { w.check() }
func (w *windowMeter) OnReads(int, int)  { w.check() }
func (w *windowMeter) OnWrite(int)       { w.check() }
func (w *windowMeter) OnWrites(int, int) { w.check() }

// TestNoChargeInsideMergeWindow: every settlement of a whole merge — mark
// persisted, duplicates unlinked from the oldtable, dead entries dropped —
// finds the seqlock even and the merge mutex free.
func TestNoChargeInsideMergeWindow(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		keySpace := []int{5, 40, 150, 600}[seed%4]
		space := vaddr.NewSpace()
		meter := &windowMeter{t: t}
		old := linkVersions(t, space, meter, 1, randomVersions(rnd, 200, keySpace, 1))
		newer := linkVersions(t, space, meter, 2, randomVersions(rnd, 200, keySpace, newSeqBase))
		slotRegion := space.NewRegion(4096, meter)
		slot, _ := slotRegion.Alloc(8)
		m := NewMerge(newer, old)
		m.SetPersistSlot(slotRegion, slot)
		m.Dead = func(_ []byte, seq uint64, _ keys.Kind) bool { return seq%11 == 0 }
		m.OnDrop = func([]byte, keys.Kind) {}
		meter.m = m
		merged := m.Run()
		meter.m = nil
		if meter.settlements == 0 {
			t.Fatalf("seed %d: the merge never settled with its device", seed)
		}
		if _, err := merged.List().CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
