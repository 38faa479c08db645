package skiplist

import (
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

type entry struct {
	key string
	seq uint64
}

// TestAdvanceSpliceMatchesFindSplice drains a sorted source list into a
// destination the way a zero-copy merge does — ascending targets, nodes
// linked at the carried splice, superseded versions behind them unlinked
// with that same splice, some targets skipped outright — and checks before
// every link that the advanced splice equals a fresh top-down FindSplice
// at every level, successor included.
func TestAdvanceSpliceMatchesFindSplice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		space := vaddr.NewSpace()
		src, _ := New(space.NewRegion(1<<20, nil))
		dst, _ := New(space.NewRegion(1<<20, nil))

		// A small key space so targets land on, between and past runs of
		// versions of one key; dst versions are all older than src's.
		keySpace := 20 + rnd.Intn(200)
		var model []entry
		add := func(l *List, e entry) {
			if err := l.Insert([]byte(e.key), []byte("v"), e.seq, keys.KindSet); err != nil {
				t.Fatal(err)
			}
		}
		for seq, n := uint64(1), rnd.Intn(400); seq <= uint64(n); seq++ {
			e := entry{fmt.Sprintf("k%04d", rnd.Intn(keySpace)), seq}
			add(dst, e)
			model = append(model, e)
		}
		for seq, n := uint64(1000), 1+rnd.Intn(400); seq < 1000+uint64(n); seq++ {
			add(src, entry{fmt.Sprintf("k%04d", rnd.Intn(keySpace)), seq})
		}

		var splice [MaxHeight]Node // zero: the first advance is the cold start
		for step := 0; ; step++ {
			n := src.First(nil)
			if n.IsNil() {
				break
			}
			key, seq := n.Key(), n.Seq()
			src.RemoveFirst(nil)
			if rnd.Intn(5) == 0 {
				continue // a dropped node: the finger skips a target
			}

			succ := dst.AdvanceSplice(nil, key, seq, &splice)
			var fresh [MaxHeight]Node
			freshSucc := dst.FindSplice(nil, key, seq, &fresh)
			if succ != freshSucc {
				t.Fatalf("seed %d step %d: successor %v, fresh search %v", seed, step, succ.addr, freshSucc.addr)
			}
			for level := range splice {
				if splice[level] != fresh[level] {
					t.Fatalf("seed %d step %d level %d: advanced %v, fresh %v",
						seed, step, level, splice[level].addr, fresh[level].addr)
				}
			}

			dst.InsertNodeWithSplice(nil, n, &splice)
			model = append(model, entry{string(key), seq})
			if rnd.Intn(2) == 0 {
				// Unlink the older versions directly behind n, no search.
				for {
					a := n.NextAddr(0)
					if a.IsNil() {
						break
					}
					d := dst.Node(a)
					if string(d.Key()) != string(key) {
						break
					}
					dst.RemoveWithSplice(nil, d, &splice)
					for i, e := range model {
						if e.key == string(key) && e.seq == d.Seq() {
							model = append(model[:i], model[i+1:]...)
							break
						}
					}
				}
			}
			if step%32 == 0 {
				if _, err := dst.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}

		count, err := dst.CheckInvariants()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if count != len(model) || dst.Count() != int64(len(model)) {
			t.Fatalf("seed %d: %d nodes linked, Count %d, model holds %d", seed, count, dst.Count(), len(model))
		}
		for _, e := range model {
			var prev [MaxHeight]Node
			n := dst.FindSplice(nil, []byte(e.key), e.seq, &prev)
			if n.IsNil() || string(n.Key()) != e.key || n.Seq() != e.seq {
				t.Fatalf("seed %d: (%s, %d) missing from the drained list", seed, e.key, e.seq)
			}
		}
	}
}

// perNodeSeek is the search with every access charged as it is made — one
// device call per pointer chased and per key compared. It is the metering
// the batched walk must total to.
func perNodeSeek(l *List, key []byte, seq uint64) Node {
	cur := l.headNode()
	var next Node
	for level := MaxHeight - 1; level >= 0; level-- {
		for {
			a := cur.nextAddr(level)
			if a.IsNil() {
				next = Node{}
				break
			}
			next = l.Node(a)
			if keys.Compare(next.Key(), next.Seq(), key, seq) >= 0 {
				break
			}
			cur = next
		}
	}
	return next
}

// TestSearchChargeIsExact pins the metering contract: a search settles
// with its device once, and Reads and BytesRead grow by exactly what
// charging node by node counts — on a DRAM and on an NVM device.
func TestSearchChargeIsExact(t *testing.T) {
	for _, profile := range []nvm.Profile{nvm.DRAMProfile(), nvm.NVMProfile()} {
		dev := nvm.NewDevice(vaddr.NewSpace(), profile)
		l, err := New(dev.NewRegion(1 << 20))
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			// Keys of varying length, so byte totals depend on the path.
			k := fmt.Sprintf("key-%0*d", 4+i%9, rnd.Intn(5000))
			if err := l.Insert([]byte(k), []byte("value"), uint64(i+1), keys.KindSet); err != nil {
				t.Fatal(err)
			}
		}
		delta := func(f func()) (reads, bytes int64) {
			c0 := dev.Counters()
			f()
			c1 := dev.Counters()
			return c1.Reads - c0.Reads, c1.BytesRead - c0.BytesRead
		}
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("key-%0*d", 4+i%9, rnd.Intn(6000)))
			seq := uint64(rnd.Intn(3000))
			var got, want Node
			r1, b1 := delta(func() { got = l.SeekGE(key, seq) })
			r2, b2 := delta(func() { want = perNodeSeek(l, key, seq) })
			if got != want {
				t.Fatalf("%s: SeekGE(%s, %d) = %v, per-node search %v", profile.Name, key, seq, got.addr, want.addr)
			}
			if r1 != r2 || b1 != b2 {
				t.Fatalf("%s: SeekGE(%s, %d) charged %d reads / %d B, per-node charging counts %d / %d",
					profile.Name, key, seq, r1, b1, r2, b2)
			}
			if r1 == 0 {
				t.Fatalf("%s: search charged nothing", profile.Name)
			}
		}
	}
}

// splitMeter records how the reads it is charged arrived.
type splitMeter struct{ calls, reads, bytes, writes, writeBytes int }

func (m *splitMeter) OnRead(n int)         { m.OnReads(1, n) }
func (m *splitMeter) OnReads(count, n int) { m.calls++; m.reads += count; m.bytes += n }
func (m *splitMeter) OnWrite(n int)        { m.OnWrites(1, n) }
func (m *splitMeter) OnWrites(count, n int) {
	m.calls++
	m.writes += count
	m.writeBytes += n
}

// TestWalkSettlesOncePerMeter covers the tally itself: any number of
// counted accesses is one charge, a walk that crosses onto a region of
// another meter settles the first before counting on the second, and
// unmetered regions cost nothing.
func TestWalkSettlesOncePerMeter(t *testing.T) {
	space := vaddr.NewSpace()
	ma, mb := &splitMeter{}, &splitMeter{}
	ra, rb, free := space.NewRegion(4096, ma), space.NewRegion(4096, mb), space.NewRegion(4096, nil)

	var w Walk
	for i := 0; i < 10; i++ {
		w.load(ra, 8)
	}
	w.load(free, 100)
	w.load(rb, 16)
	w.load(rb, 3)
	if ma.calls != 1 || ma.reads != 10 || ma.bytes != 80 {
		t.Fatalf("first meter after the walk left it: %+v", *ma)
	}
	if mb.calls != 0 {
		t.Fatalf("second meter charged before the walk ended: %+v", *mb)
	}
	w.Done()
	w.Done() // settled: nothing left to charge
	if mb.calls != 1 || mb.reads != 2 || mb.bytes != 19 {
		t.Fatalf("second meter: %+v", *mb)
	}
	if ma.calls != 1 {
		t.Fatalf("first meter charged again: %+v", *ma)
	}
}
