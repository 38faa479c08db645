package bench

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"miodb/internal/core"
)

// tiny returns the smallest sensible experiment parameters for tests.
func tiny() Params { return Params{Scale: 0.02, Out: io.Discard} }

func TestOpenStoreAllKinds(t *testing.T) {
	for _, kind := range []StoreKind{MioDB, LevelDB, NoveLSM, NoveLSMNoSST, MatrixKV} {
		s, err := OpenStore(Config{Kind: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := s.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("%s put: %v", kind, err)
		}
		v, err := s.Get([]byte("k"))
		if err != nil || string(v) != "v" {
			t.Fatalf("%s get: %q %v", kind, v, err)
		}
		s.ResetCounters()
		if err := s.Close(); err != nil {
			t.Fatalf("%s close: %v", kind, err)
		}
	}
	if _, err := OpenStore(Config{Kind: "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestOpenStoreSSDMode(t *testing.T) {
	for _, kind := range []StoreKind{MioDB, LevelDB, NoveLSM, MatrixKV} {
		s, err := OpenStore(Config{Kind: kind, SSD: true})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := 0; i < 500; i++ {
			s.Put([]byte(dbKey(uint64(i))), dbValue(uint64(i), 0, 512))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(dbKey(100)); err != nil {
			t.Fatalf("%s ssd get: %v", kind, err)
		}
		s.Close()
	}
}

// TestOpenStoreShardedSSD: each shard of a sharded SSD-mode store builds
// its own SSD disk, so the harness opens one, keys round-trip, and the
// aggregated stats show traffic on the SSD (two levels, so the lazy copy
// to the SSD starts early).
func TestOpenStoreShardedSSD(t *testing.T) {
	s, err := OpenStore(Config{Kind: MioDB, Shards: 2, SSD: true, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := s.Put(dbKey(i), dbValue(i, 0, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i += 97 {
		if v, err := s.Get(dbKey(i)); err != nil || !bytes.Equal(v, dbValue(i, 0, 512)) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	var ssd int64
	for _, d := range s.Stats().Devices {
		if d.Name == "ssd" {
			ssd += d.BytesWritten
		}
	}
	if ssd == 0 {
		t.Fatalf("no bytes written to the SSD: %+v", s.Stats().Devices)
	}
}

func TestRunnersProduceSaneResults(t *testing.T) {
	s, err := OpenStore(Config{Kind: MioDB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wres, err := FillRandom(s, 1000, 1000, 256, 1, 1, 1, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Ops != 1000 || wres.KIOPS <= 0 || wres.Latency.Count != 1000 {
		t.Errorf("FillRandom result: %+v", wres)
	}
	if _, err := FillSeq(s, 500, 256); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rres, misses, err := ReadRandom(s, 500, 500, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if misses > 0 {
		t.Errorf("ReadRandom missed %d keys written by FillSeq", misses)
	}
	if rres.KIOPS <= 0 {
		t.Error("ReadRandom zero throughput")
	}
	sres, err := ReadSeq(s, 300)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Ops != 300 {
		t.Errorf("ReadSeq scanned %d", sres.Ops)
	}
}

func TestYCSBRunnerAllWorkloads(t *testing.T) {
	s, err := OpenStore(Config{Kind: MioDB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records = 500
	if _, err := YCSBLoad(s, records, 128); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"A", "B", "C", "D", "E", "F"} {
		res, err := YCSBRun(s, w, 300, records, 128, 1, nil)
		if err != nil {
			t.Fatalf("workload %s: %v", w, err)
		}
		if res.Ops != 300 || res.KIOPS <= 0 {
			t.Errorf("workload %s result: %+v", w, res)
		}
	}
	if _, err := YCSBRun(s, "Z", 10, records, 128, 1, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestOpenStoreRefusesValueLogOnBaselines pins the capability refusal:
// only MioDB has a value log, and asking a baseline for one fails
// descriptively instead of silently running inline.
func TestOpenStoreRefusesValueLogOnBaselines(t *testing.T) {
	for _, kind := range []StoreKind{LevelDB, NoveLSM, MatrixKV} {
		_, err := OpenStore(Config{Kind: kind, ValueLog: &core.ValueLogOptions{}})
		if err == nil || !strings.Contains(err.Error(), "ValueLog") {
			t.Errorf("%s: err = %v, want descriptive ValueLog refusal", kind, err)
		}
	}
}

// TestOpenStoreRefusesMemTableBelowFloor: the harness opens MioDB
// through core.Open, so a memtable under the engine's floor is refused
// however the harness arrives at it.
func TestOpenStoreRefusesMemTableBelowFloor(t *testing.T) {
	for _, c := range []Config{
		{Kind: MioDB, MemTableSize: 100},
		{Kind: MioDB, MemoryBudget: 1000},
		{Kind: MioDB, Shards: 8, MemoryBudget: 1000},
		{Kind: MioDB, Shards: 8, MemoryBudget: 7},
	} {
		if s, err := OpenStore(c); err == nil {
			s.Close()
			t.Errorf("OpenStore accepted %+v", c)
		}
	}
}

// TestExperimentRegistryComplete pins the registry: every paper figure
// and table in paper order, then the design ablations and the experiments
// past the paper that still have no benchmark workload or gated test of
// their own.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig6", "table1", "fig7", "table2", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "table3", "fig14",
		"ablation",
		"shardscale", "membalance",
		"extra-escan", "extra-novelsm",
	}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registry = %v\nwant       %v", got, want)
	}
	for _, id := range want {
		if _, ok := FindExperiment(id); !ok {
			t.Errorf("FindExperiment(%s) failed", id)
		}
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment(nope) succeeded")
	}
}

// TestDocumentedCommandsExist reads the Makefile and README.md and checks
// that every `-experiment X` they name is registered and every `make T`
// the README names as a command (in a code span or at the start of a
// line) is a Makefile target, so deleting an experiment or a target
// cannot leave a command behind that no longer runs.
func TestDocumentedCommandsExist(t *testing.T) {
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	experiment := regexp.MustCompile(`-experiment ([a-z0-9-]+)`)
	for name, text := range map[string][]byte{"Makefile": makefile, "README.md": readme} {
		for _, m := range experiment.FindAllSubmatch(text, -1) {
			if _, ok := FindExperiment(string(m[1])); !ok {
				t.Errorf("%s runs -experiment %s, which is not registered", name, m[1])
			}
		}
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z0-9-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	for _, m := range regexp.MustCompile("(?m)(?:^|`)make ([a-z0-9-]+)").FindAllSubmatch(readme, -1) {
		if !targets[string(m[1])] {
			t.Errorf("README.md names make %s, which is not a Makefile target", m[1])
		}
	}
}

// TestExperimentsSmoke runs a representative subset end-to-end at a tiny
// scale to guard all experiment plumbing (the full set runs as benchmarks
// and via cmd/miodb-repro).
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, id := range []string{"table1", "fig9", "ablation", "extra-escan", "extra-novelsm"} {
		e, _ := FindExperiment(id)
		rep, err := e.Run(tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Lines()) < 3 {
			t.Errorf("%s produced no table", id)
		}
		if !strings.Contains(rep.String(), "shape:") {
			t.Errorf("%s missing shape note", id)
		}
	}
}

func TestReportTableFormatting(t *testing.T) {
	r := NewReport("x", "test", nil)
	r.Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := r.String()
	if !strings.Contains(out, "a    bb") {
		t.Errorf("unexpected table header formatting:\n%s", out)
	}
	if len(r.Lines()) != 5 { // title + header + sep + 2 rows
		t.Errorf("got %d lines", len(r.Lines()))
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
