package core

import (
	"fmt"
	"testing"

	"miodb/internal/vlog"
)

// BenchmarkRunValueLogGC is the explicit collector over a preloaded,
// overwritten store at default options: 2000 keys of 4 KB, nine in ten
// dead and reported so — the state the benchmark's vlog-large leaves its
// victims in. One op is RunValueLogGC to completion: the walk over every
// sealed segment, the lookups for the tenth that may be alive, their
// relocation, and the frees. The deaths are tombstones still in the
// memtable, marked by hand, so no merge runs — and the store's own
// collector is never kicked — between the load and the clock.
func BenchmarkRunValueLogGC(b *testing.B) {
	const keySpace = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }
	value := bigVal("gc", 4<<10)
	dead := func(k []byte) bool { return k[len(k)-1] != '0' }
	b.ReportAllocs()
	var segments int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := mustOpen(b, Options{ValueLog: &ValueLogOptions{}})
		for j := 0; j < keySpace; j++ {
			if err := db.Put(key(j), value); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.FlushAll(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < keySpace; j++ {
			if k := key(j); dead(k) {
				if err := db.Delete(k); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, id := range db.vlog.Segments() {
			if err := db.vlog.Walk(id, func(k []byte, _ uint64, a vlog.Addr) bool {
				if dead(k) {
					db.vlog.MarkDead(a)
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
		}
		db.vlog.SealActive()
		b.StartTimer()

		n, err := db.RunValueLogGC()
		if err != nil || n == 0 {
			b.Fatalf("RunValueLogGC reclaimed %d segments: %v", n, err)
		}
		segments += n

		b.StopTimer()
		if v, err := db.Get(key(0)); err != nil || string(v) != string(value) {
			b.Fatalf("live key after GC: %v", err)
		}
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(segments)/float64(b.N), "segments/op")
}
