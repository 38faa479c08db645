package bench

import (
	"flag"
	"io"
	"testing"
)

// TestStoreFlags parses the shared store flags the way each command-line
// tool does and checks the Config they build, and the -shards refusal.
func TestStoreFlags(t *testing.T) {
	parse := func(args ...string) (Config, error) {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		config := StoreFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return config()
	}
	cfg, err := parse()
	if err != nil || cfg.Kind != MioDB || cfg.Shards != 1 || cfg.SSD || cfg.MemoryBudget != 0 || cfg.Governor != nil || cfg.ValueLog != nil {
		t.Errorf("defaults: %+v, %v", cfg, err)
	}
	cfg, err = parse("-store", "matrixkv", "-shards", "4", "-ssd", "-memory_budget", "1024", "-governor", "-value_threshold", "2048")
	if err != nil || cfg.Kind != MatrixKV || cfg.Shards != 4 || !cfg.SSD || cfg.MemoryBudget != 1024 || cfg.Governor == nil ||
		cfg.ValueLog == nil || cfg.ValueLog.Threshold != 2048 {
		t.Errorf("all set: %+v, %v", cfg, err)
	}
	if cfg, err = parse("-value_log"); err != nil || cfg.ValueLog == nil || cfg.ValueLog.Threshold != 0 {
		t.Errorf("-value_log alone: %+v, %v", cfg, err)
	}
	if _, err = parse("-shards", "0"); err == nil {
		t.Error("-shards 0 accepted")
	}
}
