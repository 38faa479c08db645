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
	"miodb/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7707", "listen address")
		memtable    = flag.Int64("write_buffer_size", 64<<10, "memtable size in bytes")
		simulate    = flag.Bool("simulate", false, "enable device latency models")
		window      = flag.Int("window", 0, "per-connection in-flight request cap (0 = default)")
		pending     = flag.Int("max_pending", 0, "global in-flight request cap across all connections (0 = default)")
		drain       = flag.Duration("drain_timeout", 0, "how long shutdown waits for in-flight requests (0 = default)")
		storeConfig = bench.StoreFlags(flag.CommandLine)
	)
	flag.Parse()
	cfg, err := storeConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.MemTableSize = *memtable
	cfg.Simulate = *simulate
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
	fmt.Printf("miodb-server: store=%s shards=%d listening on %s\n", cfg.Kind, cfg.Shards, bound)

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
