package wal

import (
	"bytes"
	"fmt"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
)

const (
	testStride = 16 << 10
	testGrain  = 4 << 10
)

// spillingBatches appends recs to l in uneven groups, some larger than the
// test grain, with one record larger than the grain logged on its own.
func spillingBatches(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for i := 0; i < len(recs); {
		n := 1 + (i*5)%23
		if i+n > len(recs) {
			n = len(recs) - i
		}
		if err := l.AppendBatch(recs[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
}

// spillFixtures is batchFixtures with two records larger than the test
// grain, one at the head of a group and one inside a group.
func spillFixtures() []Record {
	recs := batchFixtures(400)
	recs[100].Value = bytes.Repeat([]byte{'b'}, 6<<10)
	recs[251].Value = bytes.Repeat([]byte{'c'}, 5<<10)
	return recs
}

func recsOf(in []Record) []rec {
	out := make([]rec, len(in))
	for i, r := range in {
		out[i] = rec{r.Key, r.Value, r.Seq, r.Kind}
	}
	return out
}

func sameRecs(t *testing.T, what string, got, want []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !bytes.Equal(g.key, w.key) || !bytes.Equal(g.value, w.value) || g.seq != w.seq || g.kind != w.kind {
			t.Fatalf("%s: record %d differs: %q/%d vs %q/%d", what, i, g.key, g.seq, w.key, w.seq)
		}
	}
}

// TestShortGrainLogReplaysLikeFullChunks: a log on chunks 16 KiB apart but
// backed by 4 KiB spills its groups across many chunks, lays them out
// byte for byte as one append per record would, and replays — live and
// reattached, as after a crash — the same records as a log on full chunks.
func TestShortGrainLogReplaysLikeFullChunks(t *testing.T) {
	dev := newDev()
	recs := spillFixtures()
	full := New(dev, testStride)
	short := Attach(dev, dev.NewRegionGrain(testStride, testGrain))
	spillingBatches(t, full, recs)
	spillingBatches(t, short, recs)
	if err := short.Append([]byte("last"), bytes.Repeat([]byte{'d'}, 7<<10), 999, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	if err := full.Append([]byte("last"), bytes.Repeat([]byte{'d'}, 7<<10), 999, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	want := append(recsOf(recs), rec{[]byte("last"), bytes.Repeat([]byte{'d'}, 7<<10), 999, keys.KindSet})

	r := short.Region()
	if r.Size() < 4*testStride || r.Used() >= r.Size() {
		t.Fatalf("short log did not spill into short chunks: size %d used %d", r.Size(), r.Used())
	}
	if short.Count() != full.Count() || short.Bytes() != full.Bytes() {
		t.Fatalf("counters: short %d/%d, full %d/%d", short.Count(), short.Bytes(), full.Count(), full.Bytes())
	}
	// Groups split exactly where one append per record would land.
	serial := Attach(dev, dev.NewRegionGrain(testStride, testGrain))
	for _, r := range recs {
		if err := serial.Append(r.Key, r.Value, r.Seq, r.Kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := serial.Append([]byte("last"), bytes.Repeat([]byte{'d'}, 7<<10), 999, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	sr := serial.Region()
	if sr.Size() != r.Size() || sr.Used() != r.Used() {
		t.Fatalf("serial log size %d used %d, batched %d %d", sr.Size(), sr.Used(), r.Size(), r.Used())
	}
	for off := int64(0); off < r.Size(); off += testStride {
		n := int(min(r.ChunkEnd(off), r.Size()) - off)
		if sr.ChunkEnd(off) != r.ChunkEnd(off) || !bytes.Equal(sr.Bytes(sr.Base().Add(off), n), r.Bytes(r.Base().Add(off), n)) {
			t.Fatalf("serial and batched logs differ in the chunk at %#x", off)
		}
	}

	sameRecs(t, "full", replayAll(t, full), want)
	sameRecs(t, "short", replayAll(t, short), want)
	sameRecs(t, "short reattached", replayAll(t, Attach(dev, r)), want)
}

// TestShortGrainTornTailInSpilledChunk: a torn group in a spilled chunk
// truncates replay at the acked prefix, as it does on full chunks.
func TestShortGrainTornTailInSpilledChunk(t *testing.T) {
	dev := newDev()
	l := Attach(dev, dev.NewRegionGrain(testStride, testGrain))
	recs := spillFixtures()
	spillingBatches(t, l, recs[:300])
	if l.Region().Size() <= testStride {
		t.Fatalf("log has not spilled: size %d", l.Region().Size())
	}
	dev.SetFaultPlan(nvm.NewFaultPlan(3).CrashAfterBytes(40).TornWrites())
	if err := l.AppendBatch(recs[300:320]); err == nil {
		t.Fatal("torn group acked")
	}
	if !l.Poisoned() {
		t.Fatal("log not poisoned after a torn group")
	}
	dev.SetFaultPlan(nil)
	got, st := replayAllStats(t, Attach(dev, l.Region()))
	if !st.TornTail {
		t.Error("replay did not flag the torn tail")
	}
	sameRecs(t, fmt.Sprintf("torn at %d", l.Region().Size()), got, recsOf(recs[:300]))
}
