package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"miodb/internal/core"
	"miodb/internal/histogram"
	"miodb/internal/shard"
	"miodb/internal/stats"
	"miodb/internal/ycsb"
)

// MemBalance is the adaptive-memory-governor experiment: skewed zipfian
// traffic concentrated on a few of 8 shards, adaptive vs static at equal
// total memory. The static arm splits the global memtable budget evenly,
// so the hot shards rotate and flush constantly while cold shards sit on
// idle arenas; the governed arm rebalances the same budget toward the
// heat and should show fewer hot-shard flushes at throughput/p99 no
// worse. The JSON artifact carries per-shard flush counts and
// memtable-target timelines (as JSONTimeline, in byte units — see the
// note it embeds).
func MemBalance(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("membalance", "Adaptive memory governor: skewed 8-shard fill, adaptive vs static at equal total memory", p.Out)
	const (
		shards    = 8
		valueSize = 4 << 10
		writers   = 4
		binWidth  = 20 * time.Millisecond
	)
	budget := int64(shards) * (64 << 10) // both arms: 8 × 64 KB total
	n := int(24000 * p.Scale)
	if n < 6000 {
		n = 6000
	}

	// Pre-bucket the keyspace by routing shard so the drivers can aim
	// traffic: each op picks a shard by scrambled zipfian (the scramble
	// is a pure function of the rank, so every writer — and both arms —
	// shares one shard-popularity pattern) and then a uniform key from
	// that shard's pool. Routing is a pure key hash, identical across
	// arms.
	pools := make([][]uint64, shards)
	{
		probe, err := shard.Open(shards, coreConfigFor(budget))
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < uint64(n); i++ {
			sh := probe.ShardFor(dbKey(i))
			pools[sh] = append(pools[sh], i)
		}
		probe.Close()
	}

	arms := []struct {
		name string
		gov  *shard.GovernorOptions
	}{
		{"static", nil},
		{"adaptive", &shard.GovernorOptions{Budget: budget, Interval: 5 * time.Millisecond}},
	}
	jr := NewJSONReport("membalance", map[string]interface{}{
		"shards": shards, "budget_bytes": budget, "ops": n,
		"value_size": valueSize, "writers": writers, "bin_ms": binWidth.Seconds() * 1e3,
	})
	jr.Note("target/* results are memtable-target timelines, not latencies: each sample records the shard's target bytes as a duration, so mean_us × 1000 = target bytes (mean_us ≈ target KB).")

	rows := [][]string{}
	var hotShard int
	for _, arm := range arms {
		router, err := shard.OpenGoverned(shards, coreConfigFor(budget), arm.gov)
		if err != nil {
			return nil, err
		}

		// Sample every shard's memtable target while the fill runs: the
		// static arm's lines are flat at budget/n, the governed arm's
		// spread apart as heat concentrates.
		targetTLs := make([]*histogram.Timeline, shards)
		for i := range targetTLs {
			targetTLs[i] = histogram.NewTimeline(binWidth)
		}
		var (
			sampleWG  sync.WaitGroup
			sampleDie = make(chan struct{})
		)
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-sampleDie:
					return
				case <-tick.C:
					for i, t := range router.MemTableTargets() {
						targetTLs[i].Record(time.Duration(t))
					}
				}
			}
		}()

		// Each op picks a shard by scrambled zipfian, then a uniform key
		// from that shard's pool.
		res, _, err := drive(n, writers, histogram.NewTimeline(binWidth), func(g int) op {
			choose := ycsb.NewZipfianChooser(shards, p.Seed+int64(g)*7919)
			rnd := rand.New(rand.NewSource(p.Seed + int64(g)*104729))
			pool := newValuePool(g+1, valueSize, 64)
			var k, v []byte
			return op{
				prep: func(int, int) int {
					keys := pools[choose.Choose(shards)]
					k, v = dbKey(keys[rnd.Intn(len(keys))]), pool.value()
					return 1
				},
				call: func() error { return router.Put(k, v) },
			}
		})
		close(sampleDie)
		sampleWG.Wait()
		if err != nil {
			router.Close()
			return nil, fmt.Errorf("%s: %w", arm.name, err)
		}
		router.WaitIdle()
		st := router.Stats()
		targets := router.MemTableTargets()
		moves := router.GovernorMoves()
		router.Close()

		// The hot shard is the one the skew hit hardest; the scramble is
		// arm-independent, so both arms agree on it.
		hotShard = 0
		var totalFlushes int64
		for i, sh := range st.Shards {
			totalFlushes += sh.Flushes
			if sh.Puts > st.Shards[hotShard].Puts {
				hotShard = i
			}
		}
		hot := st.Shards[hotShard]

		extra := map[string]float64{
			"flushes_total":  float64(totalFlushes),
			"flushes_hot":    float64(hot.Flushes),
			"rotations_hot":  float64(hot.Rotations),
			"hot_shard":      float64(hotShard),
			"governor_moves": float64(moves),
		}
		for i, sh := range st.Shards {
			extra[fmt.Sprintf("flushes_shard%d", i)] = float64(sh.Flushes)
			extra[fmt.Sprintf("puts_shard%d", i)] = float64(sh.Puts)
			extra[fmt.Sprintf("target_shard%d", i)] = float64(targets[i])
		}
		jr.AddRuns("fill/"+arm.name,
			map[string]interface{}{"arm": arm.name, "ops": n, "writers": writers},
			[]RunResult{res}, extra)
		for i, tl := range targetTLs {
			jr.AddRuns(fmt.Sprintf("target/%s/shard=%d", arm.name, i),
				map[string]interface{}{"arm": arm.name, "shard": i},
				[]RunResult{{Ops: res.Ops, Timeline: tl}}, nil)
		}

		l := res.Latency
		rows = append(rows, []string{
			arm.name, f1(res.KIOPS), usec(l.P50), usec(l.P99), usec(l.P999),
			fmt.Sprintf("%d", totalFlushes), fmt.Sprintf("%d", hot.Flushes),
			fmt.Sprintf("%d", targets[hotShard]>>10), fmt.Sprintf("%d", moves),
		})
		r.Printf("%-8s flushes/shard: %s  targets-KB: %s", arm.name,
			perShardInts(st.Shards, func(s int) int64 { return st.Shards[s].Flushes }),
			perShardInts(st.Shards, func(s int) int64 { return targets[s] >> 10 }))
	}
	r.Table([]string{"arm", "KIOPS", "p50-µs", "p99-µs", "p99.9-µs", "flushes", "hot-flushes", "hot-target-KB", "moves"}, rows)
	r.Printf("(%d ops, %d B values, %d writers, %d shards sharing a %d KB budget; shard %d is the zipfian hot spot; targets sampled every 2 ms)",
		n, valueSize, writers, shards, budget>>10, hotShard)
	r.Printf("shape: the static arm flushes the hot shard constantly — its 1/%d slice of the budget is too small for ~a third of the traffic — while cold shards idle. The governor reads the same heat the flush counters do and moves budget toward it, so the adaptive arm's hot-shard memtable grows toward the ChunkSize cap, its flush count drops well below the static arm's, and throughput/p99 stay no worse (the write path only reads one extra atomic). Hysteresis suppresses sub-15%% wobble, so per tick most shards stand still — the moves column divided by the tick count stays near one shard per tick, not %d.", shards, shards)

	if p.JSONDir != "" {
		path := filepath.Join(p.JSONDir, "BENCH_membalance.json")
		if err := jr.Write(path); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		r.Printf("wrote %s", path)
	}
	return r, nil
}

// coreConfigFor is the shared per-arm store shape: 8 shards of
// budget/8 each, simulation on, matching OpenStore's MioDB defaults.
func coreConfigFor(budget int64) core.Options {
	return core.Options{
		MemTableSize: budget / 8,
		Levels:       8,
		Simulate:     true,
		TimeScale:    1,
	}
}

// perShardInts renders a compact per-shard int list for report lines.
func perShardInts(shardsSnap []stats.Snapshot, get func(i int) int64) string {
	out := ""
	for i := range shardsSnap {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d", get(i))
	}
	return out
}
