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
)

func main() {
	var (
		benchmarks  = flag.String("benchmarks", "fillrandom,readrandom", "comma-separated: fillseq,fillrandom,readseq,readrandom,stats")
		num         = flag.Int("num", 20000, "number of entries")
		reads       = flag.Int("reads", 0, "number of reads (default: num)")
		valueSize   = flag.Int("value_size", 4096, "value size in bytes")
		memtable    = flag.Int64("write_buffer_size", 64<<10, "memtable size in bytes")
		levels      = flag.Int("levels", 8, "miodb elastic-buffer levels")
		seed        = flag.Int64("seed", 1, "workload seed")
		threads     = flag.Int("threads", 1, "concurrent goroutines for fill and readrandom benchmarks")
		batch       = flag.Int("batch", 1, "client-side batch size for concurrent fills (uses MPUT-style batches when > 1)")
		zipfian     = flag.Bool("zipfian", false, "use zipfian keys for concurrent fills (default uniform)")
		jsonOut     = flag.String("json", "", "write a machine-readable record of every run to this path")
		reps        = flag.Int("reps", 1, "repetitions per benchmark (reported best; all reps recorded in -json output)")
		storeConfig = bench.StoreFlags(flag.CommandLine)
	)
	flag.Parse()
	if *reads <= 0 {
		*reads = *num
	}
	cfg, err := storeConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.MemTableSize = *memtable
	cfg.Levels = *levels
	cfg.Simulate = true
	s, err := bench.OpenStore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer s.Close()

	fmt.Printf("store=%s entries=%d value_size=%d memtable=%d ssd=%v shards=%d\n",
		cfg.Kind, *num, *valueSize, *memtable, cfg.SSD, cfg.Shards)

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
			"store": cfg.Kind, "num": *num, "reads": *reads, "value_size": *valueSize,
			"memtable": *memtable, "levels": *levels, "shards": cfg.Shards, "ssd": cfg.SSD,
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
			// The store's one stats text (the server's stats op returns the
			// same), then the per-level merge work, which it does not hold.
			fmt.Println("stats        :", s.Stats())
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
