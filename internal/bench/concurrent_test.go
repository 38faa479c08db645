package bench

import (
	"fmt"
	"testing"
)

// BenchmarkConcurrentWrites measures multi-writer fill throughput with
// the device latency models on. It sweeps 1/2/4/8/16 writer goroutines
// over uniform and zipfian key distributions, against MioDB and the
// baselines.
//
// Run e.g.:
//
//	go test ./internal/bench -bench ConcurrentWrites -benchtime 1x
func BenchmarkConcurrentWrites(b *testing.B) {
	const (
		entries   = 8000
		valueSize = 128
	)
	arms := []struct {
		name string
		cfg  Config
	}{
		{"miodb", Config{Kind: MioDB, Simulate: true}},
		{"novelsm", Config{Kind: NoveLSM, Simulate: true}},
		{"matrixkv", Config{Kind: MatrixKV, Simulate: true}},
	}
	if testing.Short() {
		arms = arms[:2]
	}
	for _, arm := range arms {
		for _, dist := range []KeyDist{Uniform, Zipfian} {
			for _, writers := range []int{1, 2, 4, 8, 16} {
				name := fmt.Sprintf("%s/%s/writers=%d", arm.name, dist, writers)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						s, err := OpenStore(arm.cfg)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						r, err := ConcurrentFill(s, entries, entries, valueSize, 1, writers, dist)
						if err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						b.ReportMetric(r.KIOPS*1000, "ops/s")
						s.Close()
						b.StartTimer()
					}
					b.SetBytes(int64(entries * (valueSize + 16) / 1))
				})
			}
		}
	}
}
