// Command miodb-server exposes any of the four stores over TCP with the
// repository's binary protocol (internal/server), turning the
// reproduction into a network-attachable KV service. Each connection
// holds many tagged requests in flight, and all connections' writes are
// merged into shared batch commits.
//
// Example:
//
//	miodb-server -addr 127.0.0.1:7707 -store miodb -window 256
//
// The matching Go client is internal/client.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"miodb/internal/bench"
	"miodb/internal/core"
	"miodb/internal/server"
	"miodb/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7707", "listen address")
		store    = flag.String("store", "miodb", "store: miodb | leveldb | novelsm | novelsm-nosst | novelsm-hier | matrixkv")
		memtable = flag.Int64("write_buffer_size", 64<<10, "memtable size in bytes")
		shards   = flag.Int("shards", 1, "miodb shard count (hash-partitioned engines; 1 = single engine)")
		ssd      = flag.Bool("ssd", false, "use the DRAM-NVM-SSD hierarchy")
		simulate = flag.Bool("simulate", false, "enable device latency models")
		window   = flag.Int("window", 0, "per-connection in-flight request cap (0 = default)")
		pending  = flag.Int("max_pending", 0, "global in-flight request cap across all connections (0 = default)")
		drain    = flag.Duration("drain_timeout", 0, "how long shutdown waits for in-flight requests (0 = default)")
		budget   = flag.Int64("memory_budget", 0, "global memtable budget in bytes split across shards (0 = per-shard write_buffer_size)")
		governor = flag.Bool("governor", false, "adaptively rebalance the memtable budget across shards by write heat (requires -shards > 1)")
		valueLog = flag.Bool("value_log", false, "miodb key-value separation: append large values to a value log, store 16-byte pointers in the LSM")
		valueThr = flag.Int("value_threshold", 0, "minimum value size in bytes routed to the value log (0 = default 1024; implies -value_log)")
		valueSSD = flag.Bool("value_log_ssd", false, "place value-log segments on the simulated SSD tier (implies -value_log)")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards %d: must be >= 1 (1 = single engine)\n", *shards)
		os.Exit(2)
	}

	cfg := bench.Config{
		Kind:         bench.StoreKind(*store),
		MemTableSize: *memtable,
		Shards:       *shards,
		SSD:          *ssd,
		Simulate:     *simulate,
	}
	cfg.MemoryBudget = *budget
	if *governor {
		cfg.Governor = &shard.GovernorOptions{}
	}
	if *valueLog || *valueThr > 0 || *valueSSD {
		cfg.ValueLog = &core.ValueLogOptions{Threshold: *valueThr, OnSSD: *valueSSD}
	}
	s, err := bench.OpenStore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open store:", err)
		os.Exit(1)
	}

	srv := server.NewWithOptions(s, server.Options{
		Window:       *window,
		MaxPending:   *pending,
		DrainTimeout: *drain,
	})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("miodb-server: store=%s shards=%d listening on %s\n", *store, *shards, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down...")
	srv.Close()
	if err := s.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "flush:", err)
	}
	s.Close()
}
