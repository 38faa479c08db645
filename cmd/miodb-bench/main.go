// Command miodb-bench is the db_bench-style micro-benchmark driver
// (LevelDB's db_bench, §5.1): it runs fillseq / fillrandom / readseq /
// readrandom workloads against any of the four stores and reports
// throughput, latency percentiles, and the store's cost accounting.
//
// Example:
//
//	miodb-bench -store miodb -benchmarks fillrandom,readrandom -num 20000 -value_size 4096
//	miodb-bench -store novelsm -benchmarks fillseq,readseq -ssd
//	miodb-bench -store miodb -reps 3 -json bench.json   # machine-readable record
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"miodb/internal/bench"
	"miodb/internal/core"
	"miodb/internal/shard"
	"miodb/internal/stats"
)

func main() {
	var (
		store      = flag.String("store", "miodb", "store: miodb | leveldb | novelsm | novelsm-nosst | novelsm-hier | matrixkv")
		benchmarks = flag.String("benchmarks", "fillrandom,readrandom", "comma-separated: fillseq,fillrandom,readseq,readrandom,stats")
		num        = flag.Int("num", 20000, "number of entries")
		reads      = flag.Int("reads", 0, "number of reads (default: num)")
		valueSize  = flag.Int("value_size", 4096, "value size in bytes")
		memtable   = flag.Int64("write_buffer_size", 64<<10, "memtable size in bytes")
		levels     = flag.Int("levels", 8, "miodb elastic-buffer levels")
		shards     = flag.Int("shards", 1, "miodb shard count (hash-partitioned engines; 1 = single engine)")
		ssd        = flag.Bool("ssd", false, "use the DRAM-NVM-SSD hierarchy")
		seed       = flag.Int64("seed", 1, "workload seed")
		threads    = flag.Int("threads", 1, "concurrent goroutines for fill and readrandom benchmarks")
		batch      = flag.Int("batch", 1, "client-side batch size for concurrent fills (uses MPUT-style batches when > 1)")
		zipfian    = flag.Bool("zipfian", false, "use zipfian keys for concurrent fills (default uniform)")
		memBudget  = flag.Int64("memory_budget", 0, "global memtable budget in bytes split across shards (0 = per-shard write_buffer_size)")
		governor   = flag.Bool("governor", false, "adaptively rebalance the memtable budget across shards by write heat (requires -shards > 1)")
		valueLog   = flag.Bool("value_log", false, "miodb key-value separation: append large values to a value log, store 16-byte pointers in the LSM")
		valueThres = flag.Int("value_threshold", 0, "minimum value size in bytes routed to the value log (0 = default 1024; implies -value_log)")
		valueOnSSD = flag.Bool("value_log_ssd", false, "place value-log segments on the simulated SSD tier (implies -value_log)")
		jsonOut    = flag.String("json", "", "write a machine-readable record of every run to this path")
		reps       = flag.Int("reps", 1, "repetitions per benchmark (reported best; all reps recorded in -json output)")
	)
	flag.Parse()
	if *reads <= 0 {
		*reads = *num
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards %d: must be >= 1 (1 = single engine)\n", *shards)
		os.Exit(2)
	}

	cfg := bench.Config{
		Kind:         bench.StoreKind(*store),
		MemTableSize: *memtable,
		Levels:       *levels,
		Shards:       *shards,
		SSD:          *ssd,
		Simulate:     true,
	}
	cfg.MemoryBudget = *memBudget
	if *governor {
		cfg.Governor = &shard.GovernorOptions{}
	}
	if *valueLog || *valueThres > 0 || *valueOnSSD {
		cfg.ValueLog = &core.ValueLogOptions{Threshold: *valueThres, OnSSD: *valueOnSSD}
	}
	s, err := bench.OpenStore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer s.Close()

	fmt.Printf("store=%s entries=%d value_size=%d memtable=%d ssd=%v shards=%d\n",
		*store, *num, *valueSize, *memtable, *ssd, *shards)

	report := func(name string, r bench.RunResult) {
		fmt.Printf("%-12s : %8.1f KIOPS  (%d ops in %v; avg %.1fµs p99 %.1fµs p99.9 %.1fµs)\n",
			name, r.KIOPS, r.Ops, r.Duration.Round(1e6),
			r.Latency.Mean.Seconds()*1e6, r.Latency.P99.Seconds()*1e6, r.Latency.P999.Seconds()*1e6)
	}

	if *reps < 1 {
		*reps = 1
	}
	var jr *bench.JSONReport
	if *jsonOut != "" {
		jr = bench.NewJSONReport("miodb-bench", map[string]interface{}{
			"store": *store, "num": *num, "reads": *reads, "value_size": *valueSize,
			"memtable": *memtable, "levels": *levels, "shards": *shards, "ssd": *ssd,
			"threads": *threads, "batch": *batch, "zipfian": *zipfian,
			"seed": *seed, "reps": *reps,
		})
	}
	// measure runs one benchmark reps times on the shared store (fixed
	// seeds keep the key set stable across reps, so repeated fills
	// overwrite rather than grow the dataset), prints the best run, and
	// records every rep in the JSON document.
	measure := func(name string, fn func(rep int) (bench.RunResult, error)) {
		var runs []bench.RunResult
		best := bench.RunResult{}
		for rep := 0; rep < *reps; rep++ {
			r, err := fn(rep)
			exitOn(err)
			runs = append(runs, r)
			if r.KIOPS >= best.KIOPS {
				best = r
			}
		}
		report(name, best)
		if jr != nil {
			jr.AddRuns(name, nil, runs, nil)
		}
	}

	for _, b := range strings.Split(*benchmarks, ",") {
		switch strings.TrimSpace(b) {
		case "fillseq":
			measure("fillseq", func(int) (bench.RunResult, error) {
				return bench.FillSeq(s, *num, *valueSize, nil)
			})
		case "fillrandom":
			if *threads > 1 {
				dist := bench.Uniform
				if *zipfian {
					dist = bench.Zipfian
				}
				measure(fmt.Sprintf("fillrandom×%d", *threads), func(rep int) (bench.RunResult, error) {
					return bench.ConcurrentBatchFill(s, *num, uint64(*num), *valueSize, *seed+int64(rep), *threads, *batch, dist)
				})
			} else {
				measure("fillrandom", func(rep int) (bench.RunResult, error) {
					return bench.FillRandom(s, *num, uint64(*num), *valueSize, *seed+int64(rep), nil)
				})
			}
		case "readseq":
			exitOn(s.Flush())
			measure("readseq", func(int) (bench.RunResult, error) {
				return bench.ReadSeq(s, *reads)
			})
		case "readrandom":
			exitOn(s.Flush())
			var misses int
			if *threads > 1 {
				measure(fmt.Sprintf("readrandom×%d", *threads), func(rep int) (bench.RunResult, error) {
					r, m, err := bench.ConcurrentReadRandom(s, *reads, uint64(*num), *seed+1+int64(rep), *threads)
					misses = m
					return r, err
				})
			} else {
				measure("readrandom", func(rep int) (bench.RunResult, error) {
					r, m, err := bench.ReadRandom(s, *reads, uint64(*num), *seed+1+int64(rep))
					misses = m
					return r, err
				})
			}
			if misses > 0 {
				fmt.Printf("  (%d of %d reads missed — fillrandom leaves key gaps)\n", misses, *reads)
			}
		case "stats":
			st := s.Stats()
			fmt.Printf("stats        : WA=%.2f interval-stall=%v×%d cumulative-stall=%v flush=%v×%d serialize=%v deserialize=%v\n",
				st.WriteAmplification, st.IntervalStall.Round(1e6), st.IntervalStalls, st.CumulativeStall.Round(1e6),
				st.FlushTime.Round(1e6), st.Flushes, st.SerializeTime.Round(1e6), st.DeserializeTime.Round(1e6))
			// Per-op latency distributions measured inside the store (not
			// the harness), merged across shards.
			for op := stats.Op(0); op < stats.NumOps; op++ {
				snap := st.OpLatencies[op]
				if snap.Count == 0 {
					continue
				}
				fmt.Printf("  lat %-7s: count=%d p50=%.1fµs p99=%.1fµs p99.9=%.1fµs max=%.1fµs\n",
					op, snap.Count,
					snap.P50.Seconds()*1e6, snap.P99.Seconds()*1e6,
					snap.P999.Seconds()*1e6, snap.Max.Seconds()*1e6)
			}
			if st.PendingImms > 0 || st.L0Tables > 0 {
				fmt.Printf("  backlog: pending-imms=%d (%dKB) l0-tables=%d (%dKB)\n",
					st.PendingImms, st.PendingImmBytes>>10, st.L0Tables, st.L0Bytes>>10)
			}
			if st.WriteGroups > 0 {
				fmt.Printf("  commits: %d commits / %d writes (mean batch size %.2f)\n",
					st.WriteGroups, st.GroupedWrites, st.MeanGroupSize)
			}
			for i, sh := range st.Shards {
				fmt.Printf("  shard %d: puts=%d gets=%d deletes=%d WA=%.2f flushes=%d rotations=%d memtarget=%dKB\n",
					i, sh.Puts, sh.Gets, sh.Deletes, sh.WriteAmplification, sh.Flushes, sh.Rotations, sh.MemTableTargetBytes>>10)
			}
			if st.BloomProbes > 0 {
				fmt.Printf("  bloom: probes=%d skips=%d false-positives=%d measured-fp-rate=%.4f\n",
					st.BloomProbes, st.BloomSkips, st.BloomFalsePositives, st.BloomFalsePositiveRate)
				for _, bl := range st.BloomLevels {
					if bl.Probes == 0 {
						continue
					}
					fmt.Printf("    level %d: probes=%d skips=%d fps=%d hits=%d fp-rate=%.4f\n",
						bl.Level, bl.Probes, bl.Skips, bl.FalsePositives, bl.Hits, bl.FalsePositiveRate)
				}
			}
			if st.LiveVersions > 0 {
				fmt.Printf("  versions: live=%d pending-releases=%d epoch=%d swept=%d\n",
					st.LiveVersions, st.PendingReleases, st.ReadEpoch, st.VersionsSwept)
			}
			for _, d := range st.Devices {
				fmt.Printf("  device %-10s written=%dKB read=%dKB\n", d.Name, d.BytesWritten>>10, d.BytesRead>>10)
			}
			if ms, ok := s.(interface{ CompactionStats() []core.CompactionStats }); ok {
				for _, ls := range ms.CompactionStats() {
					if ls.Merges == 0 {
						continue
					}
					fmt.Printf("  level %d: merges=%d nodes=%d garbage=%dKB\n",
						ls.Level, ls.Merges, ls.NodesMoved, ls.GarbageBytes>>10)
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", b)
			os.Exit(2)
		}
	}

	if jr != nil {
		exitOn(jr.Write(*jsonOut))
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
