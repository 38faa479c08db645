package core

import (
	"fmt"
	"testing"
)

// BenchmarkScan20 is the benchmark's scan — Seek plus 20 entries — over a
// store preloaded with its mixed workload's key space at default options,
// left as the load leaves it: memtable, level tables (some of them
// merging now and then) and repository all hold part of every range.
func BenchmarkScan20(b *testing.B) {
	db := mustOpen(b, Options{})
	defer db.Close()
	const keySpace = 60000
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }
	value := make([]byte, 128)
	for i := 0; i < keySpace; i++ {
		if err := db.Put(key(i*7919%keySpace), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.Scan(key(i*104729%(keySpace-20)), 20, func(_, _ []byte) bool { n++; return true })
		if err != nil || n != 20 {
			b.Fatalf("scan %d: %d entries, %v", i, n, err)
		}
	}
}
