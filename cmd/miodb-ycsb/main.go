// Command miodb-ycsb drives the YCSB workloads (Cooper et al.) against
// any of the four stores, as in the paper's §5.2: a load phase followed
// by workloads A–F, with throughput and tail-latency reporting.
//
// Example:
//
//	miodb-ycsb -store miodb -records 20000 -ops 12000 -workloads A,B,C,D,E,F
//	miodb-ycsb -store matrixkv -value_size 1024 -workloads A -timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"miodb/internal/bench"
	"miodb/internal/histogram"
)

func main() {
	var (
		records     = flag.Uint64("records", 20000, "records to load")
		ops         = flag.Int("ops", 12000, "operations per workload")
		valueSize   = flag.Int("value_size", 4096, "value size in bytes")
		workloads   = flag.String("workloads", "A,B,C,D,E,F", "comma-separated workload letters (A-F, plus M: 95% 8-key multi-gets / 5% updates)")
		timeline    = flag.Bool("timeline", false, "print a latency-over-time sparkline per workload (Fig 8)")
		seed        = flag.Int64("seed", 1, "workload seed")
		storeConfig = bench.StoreFlags(flag.CommandLine)
	)
	flag.Parse()
	cfg, err := storeConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Simulate = true
	s, err := bench.OpenStore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer s.Close()

	fmt.Printf("store=%s records=%d ops=%d value_size=%d shards=%d ssd=%v\n",
		cfg.Kind, *records, *ops, *valueSize, cfg.Shards, cfg.SSD)

	loadRes, err := bench.YCSBLoad(s, *records, *valueSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Printf("load : %8.1f KIOPS  avg=%.1fµs p99.9=%.1fµs\n",
		loadRes.KIOPS, loadRes.Latency.Mean.Seconds()*1e6, loadRes.Latency.P999.Seconds()*1e6)

	for i, w := range strings.Split(*workloads, ",") {
		w = strings.ToUpper(strings.TrimSpace(w))
		var tl *histogram.Timeline
		if *timeline {
			tl = histogram.NewTimeline(20 * time.Millisecond)
		}
		res, err := bench.YCSBRun(s, w, *ops, *records, *valueSize, *seed+int64(i), tl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workload %s: %v\n", w, err)
			os.Exit(1)
		}
		l := res.Latency
		fmt.Printf("%-5s: %8.1f KIOPS  avg=%.1fµs p90=%.1fµs p99=%.1fµs p99.9=%.1fµs\n",
			w, res.KIOPS,
			l.Mean.Seconds()*1e6, l.P90.Seconds()*1e6, l.P99.Seconds()*1e6, l.P999.Seconds()*1e6)
		if tl != nil {
			fmt.Printf("      spikes=%.1f  %s\n", tl.SpikeFactor(), tl.Sparkline())
		}
	}

	// The store's one stats text: its cost accounting, its own per-op
	// distributions (the harness percentiles above measure whole YCSB ops,
	// which may bundle a read and a write) and, on a sharded store, how
	// evenly the routing hash spread the workload.
	fmt.Println("stats:", s.Stats())
}
