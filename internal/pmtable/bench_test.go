package pmtable

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
)

// The background kernel alone (make bench-bg): one zero-copy merge, one
// lazy copy into a repository of 30 000 keys and one flush's swizzle, each
// reported per node with the trips it made to the device and the bytes it
// wrote there (the drain's own: the foreground goroutine below writes to
// the device directly, not through the counting wrapper), quiet and beside
// a foreground goroutine hammering the same device's counters — the one
// cache line a drain shares with the write path. Run with -cpu 1,2: on one
// core the writer only takes time slices, on two it takes the line.

const (
	benchTableKeys = 4000  // entries per drained table
	benchRepoKeys  = 30000 // the issue's repository size
	benchMemKeys   = 511   // fill-small's memtable: 512 metered stores per flush
)

func benchKey(i int) string { return fmt.Sprintf("user%012d", i) }

// benchVersions is n 128-byte values on keys first, first+stride, ….
func benchVersions(n, first, stride int, seqBase uint64) []version {
	vs := make([]version, n)
	value := string(make([]byte, 128))
	for i := range vs {
		vs[i] = version{key: benchKey(first + i*stride), value: value, seq: seqBase + uint64(i), kind: keys.KindSet}
	}
	return vs
}

// flushOnto is pmtable.Flush with the clone metered by meter instead of a
// device: memtable, one bulk copy, swizzle, attach.
func flushOnto(b *testing.B, space *vaddr.Space, dram *nvm.Device, meter vaddr.Meter, id uint64, vs []version) *Table {
	b.Helper()
	mt, err := memtable.New(dram, 1<<30, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range vs {
		if err := mt.Add([]byte(v.key), []byte(v.value), v.seq, v.kind); err != nil {
			b.Fatal(err)
		}
	}
	clone := space.Clone(mt.Region(), meter)
	head := skiplist.Swizzle(clone, mt.Region(), mt.List().Head())
	mt.Release()
	return Attach(space, head, id, []*vaddr.Region{clone}, fp())
}

// bgBench runs one drain benchmark quiet and contended. setup builds the
// iteration's input untimed on the given meter and returns the timed drain,
// which reports the nodes it moved and the runs it moved them in (a drain
// that moves nodes one by one reports them as its runs).
func bgBench(b *testing.B, setup func(b *testing.B, space *vaddr.Space, dram *nvm.Device, meter vaddr.Meter) func() (nodes, runs int64)) {
	for _, contended := range []bool{false, true} {
		name := "quiet"
		if contended {
			name = "contended"
		}
		b.Run(name, func(b *testing.B) {
			space := vaddr.NewSpace()
			dram := nvm.NewDevice(space, nvm.DRAMProfile())
			dev := &calledDevice{Device: nvm.NewDevice(space, nvm.NVMProfile())}
			if contended {
				// What a Put does to the device: a search settled, a store.
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						dev.Device.OnReads(20, 400)
						dev.Device.OnWrite(8)
						runtime.Gosched()
					}
				}()
				defer func() { close(stop); wg.Wait() }()
			}
			var nodes, runs int64
			calls, written := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				drain := setup(b, space, dram, dev)
				c0, w0 := dev.calls, dev.written
				b.StartTimer()
				n, r := drain()
				b.StopTimer()
				nodes, runs = nodes+n, runs+r
				calls += dev.calls - c0
				written += dev.written - w0
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(calls)/float64(nodes), "devcalls/node")
			b.ReportMetric(float64(written)/float64(nodes), "nvmB/node")
			if runs != nodes {
				b.ReportMetric(float64(nodes)/float64(runs), "nodes/run")
			}
		})
	}
}

// BenchmarkMergeRun drains two table shapes. interleaved: the newtable's
// keys every third, the oldtable's every fourth, every twelfth shared —
// runs of one or two nodes, some with a superseded version to unlink
// behind them. dense: the newtable's keys consecutive, the oldtable's every
// 64th — runs of runCap nodes, the best case.
func BenchmarkMergeRun(b *testing.B) {
	for _, tc := range []struct {
		name                 string
		oldStride, newStride int
	}{
		{"interleaved", 4, 3},
		{"dense", 64, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bgBench(b, func(b *testing.B, space *vaddr.Space, dram *nvm.Device, meter vaddr.Meter) func() (int64, int64) {
				old := flushOnto(b, space, dram, meter, 1, benchVersions(benchTableKeys, 0, tc.oldStride, 1))
				newer := flushOnto(b, space, dram, meter, 2, benchVersions(benchTableKeys, 0, tc.newStride, newSeqBase))
				slotRegion := space.NewRegion(4096, meter)
				slot, _ := slotRegion.Alloc(8)
				m := NewMerge(newer, old)
				m.SetPersistSlot(slotRegion, slot)
				return func() (int64, int64) {
					merged := m.Run()
					releaseAll(space, append(merged.Regions(), slotRegion))
					return m.moved, m.runs
				}
			})
		})
	}
}

func releaseAll(space *vaddr.Space, regions []*vaddr.Region) {
	for _, r := range regions {
		space.Release(r)
	}
}

func BenchmarkAbsorb(b *testing.B) {
	for _, tc := range []struct {
		name  string
		first int // first table key: inside the repository's range, or past it
	}{
		{"overlapping", 0},
		{"disjoint", benchRepoKeys * 7},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bgBench(b, func(b *testing.B, space *vaddr.Space, dram *nvm.Device, meter vaddr.Meter) func() (int64, int64) {
				region := space.NewRegion(1<<20, meter)
				list, err := skiplist.New(region)
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, 128)
				for i := 0; i < benchRepoKeys; i++ {
					if err := list.Insert([]byte(benchKey(i*7)), value, uint64(i+1), keys.KindSet); err != nil {
						b.Fatal(err)
					}
				}
				repo := &Repository{region: region, list: list}
				table := flushOnto(b, space, dram, meter, 1, benchVersions(benchTableKeys, tc.first, 7, newSeqBase*10))
				return func() (int64, int64) {
					if err := repo.AbsorbWith(table, AbsorbPolicy{}); err != nil {
						b.Fatal(err)
					}
					releaseAll(space, append(table.Regions(), region))
					return benchTableKeys, benchTableKeys
				}
			})
		})
	}
}

func BenchmarkFlushSwizzle(b *testing.B) {
	bgBench(b, func(b *testing.B, space *vaddr.Space, dram *nvm.Device, meter vaddr.Meter) func() (int64, int64) {
		mt, err := memtable.New(dram, 1<<30, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range benchVersions(benchMemKeys, 0, 1, 1) {
			if err := mt.Add([]byte(v.key), []byte(v.value), v.seq, v.kind); err != nil {
				b.Fatal(err)
			}
		}
		clone := space.Clone(mt.Region(), meter)
		return func() (int64, int64) {
			skiplist.Swizzle(clone, mt.Region(), mt.List().Head())
			space.Release(clone)
			mt.Release()
			return benchMemKeys, benchMemKeys
		}
	})
}
