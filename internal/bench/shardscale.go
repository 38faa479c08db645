package bench

import (
	"fmt"
	"path/filepath"
)

// ShardScale is the multi-core scaling experiment behind the shard
// router: fill and readrandom throughput vs shard count at a fixed
// thread count, so the partitioned front end (N MemTables, N WALs, N
// commit locks) is compared arm-vs-arm against the single engine the
// same build runs with Shards=1. On a single-core host the arms should
// roughly coincide — partitioning buys parallelism, not work reduction —
// so the table is primarily a multi-core artifact (see EXPERIMENTS.md's
// single-core caveat).
func ShardScale(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("shardscale", "Sharded store throughput (KIOPS) vs shard count", p.Out)
	const valueSize = 128
	const threads = 8
	n := int(32000 * p.Scale)
	if n < 4000 {
		n = 4000
	}
	// Best-of-three per cell, as in the other concurrency experiments:
	// scheduler noise on small hosts swamps single-shot runs.
	const reps = 3
	jr := NewJSONReport("shardscale", map[string]interface{}{
		"entries": n, "value_size": valueSize, "threads": threads, "reps": reps,
	})
	rows := [][]string{}
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := Config{Kind: MioDB, Simulate: true, Shards: shards}
		bestFill, bestRead := 0.0, 0.0
		var maxImbalance float64
		var fillRuns, readRuns []RunResult
		for rep := 0; rep < reps; rep++ {
			m, err := pass{n: n, valueSize: valueSize, reads: n, threads: threads, seed: p.Seed + int64(rep)}.run(OpenStore(cfg))
			if err != nil {
				return nil, err
			}
			fillRuns = append(fillRuns, m.fill)
			readRuns = append(readRuns, m.read)
			bestFill = max(bestFill, m.fill.KIOPS)
			bestRead = max(bestRead, m.read.KIOPS)
			// Routing balance: max shard's write share over the ideal
			// 1/shards share (1.00 = perfectly even).
			if st := m.st; len(st.Shards) > 0 {
				var maxPuts int64
				for _, sh := range st.Shards {
					maxPuts = max(maxPuts, sh.Puts)
				}
				maxImbalance = max(maxImbalance, float64(maxPuts)*float64(len(st.Shards))/float64(st.Puts))
			}
		}
		balance := "-"
		if maxImbalance > 0 {
			balance = fmt.Sprintf("%.2f", maxImbalance)
		}
		cellCfg := map[string]interface{}{"shards": shards}
		extra := map[string]float64{}
		if maxImbalance > 0 {
			extra["balance"] = maxImbalance
		}
		jr.AddRuns(fmt.Sprintf("fill/shards=%d", shards), cellCfg, fillRuns, extra)
		jr.AddRuns(fmt.Sprintf("readrandom/shards=%d", shards), cellCfg, readRuns, nil)
		rows = append(rows, []string{
			fmt.Sprintf("%d", shards), f1(bestFill), f1(bestRead), balance,
		})
	}
	r.Table([]string{"shards", "fill", "readrandom", "balance"}, rows)
	r.Printf("(%d entries, %d B values, %d writer/reader threads, uniform keys, best of %d runs; balance = hottest shard's write share ÷ the even 1/N share)", n, valueSize, threads, reps)
	r.Printf("shape: shards=1 is byte-for-byte the single-engine path. Each added shard splits the front end — its own MemTable, WAL, commit lock, and compaction pipeline — so on a multi-core host fill and readrandom scale with shard count until cores run out; on a single-core host the arms roughly coincide (the hash split adds a few percent of routing overhead and buys no parallelism). FNV-1a routing keeps the balance column near 1.0: no shard becomes a hot spot under uniform keys.")
	if p.JSONDir != "" {
		path := filepath.Join(p.JSONDir, "BENCH_shardscale.json")
		if err := jr.Write(path); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		r.Printf("wrote %s", path)
	}
	return r, nil
}
