package bench

import (
	"io"
	"strings"
	"testing"
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

func TestRunnersProduceSaneResults(t *testing.T) {
	s, err := OpenStore(Config{Kind: MioDB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wres, err := FillRandom(s, 1000, 1000, 256, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Ops != 1000 || wres.KIOPS <= 0 || wres.Latency.Count != 1000 {
		t.Errorf("FillRandom result: %+v", wres)
	}
	if _, err := FillSeq(s, 500, 256, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rres, misses, err := ReadRandom(s, 500, 500, 2)
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

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig6", "table1", "fig7", "table2", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "table3", "fig14", "ablation",
		"shardscale", "netscale", "multiget", "membalance", "valuesize", "torture", "extra-escan", "extra-novelsm",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
		if _, ok := FindExperiment(id); !ok {
			t.Errorf("FindExperiment(%s) failed", id)
		}
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment(nope) succeeded")
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
