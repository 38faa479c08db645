package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/stats"
	"miodb/internal/vfs"
)

func buildTestTable(t testing.TB, n int, valSize int) (*Table, *stats.Recorder) {
	t.Helper()
	disk := vfs.NewDisk(vfs.NVMBlockProfile())
	st := &stats.Recorder{}
	w := disk.Create("test.sst")
	b := NewBuilder(w, BuilderOptions{BloomBitsPerKey: 16, ExpectedKeys: n, Stats: st})
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := bytes.Repeat([]byte{byte(i)}, valSize)
		if err := b.Add(key, uint64(i+1), keys.KindSet, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := disk.Open("test.sst")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(r, st)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, st
}

func TestBuildOpenGet(t *testing.T) {
	tbl, st := buildTestTable(t, 1000, 64)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		v, seq, kind, ok := tbl.Get(key)
		if !ok || seq != uint64(i+1) || kind != keys.KindSet {
			t.Fatalf("Get(%s): ok=%v seq=%d kind=%d", key, ok, seq, kind)
		}
		if len(v) != 64 || v[0] != byte(i) {
			t.Fatalf("Get(%s) wrong value", key)
		}
	}
	if _, _, _, ok := tbl.Get([]byte("absent")); ok {
		t.Error("found absent key")
	}
	if _, _, _, ok := tbl.Get([]byte("zzz")); ok {
		t.Error("found key past the end")
	}
	// Bounds.
	if string(tbl.Smallest) != "key-000000" || string(tbl.Largest) != "key-000999" {
		t.Errorf("bounds [%s, %s]", tbl.Smallest, tbl.Largest)
	}
	// Serialization and deserialization were accounted.
	snap := st.Snapshot()
	if snap.SerializeTime == 0 {
		t.Error("no serialization time recorded")
	}
	if snap.DeserializeTime == 0 {
		t.Error("no deserialization time recorded")
	}
}

func TestMultipleVersionsAndTombstones(t *testing.T) {
	disk := vfs.NewDisk(vfs.NVMBlockProfile())
	w := disk.Create("t.sst")
	b := NewBuilder(w, BuilderOptions{BloomBitsPerKey: 16})
	// (key asc, seq desc) order with versions and a tombstone.
	b.Add([]byte("a"), 9, keys.KindSet, []byte("a-new"))
	b.Add([]byte("a"), 5, keys.KindSet, []byte("a-old"))
	b.Add([]byte("b"), 7, keys.KindDelete, nil)
	b.Add([]byte("b"), 3, keys.KindSet, []byte("b-old"))
	b.Add([]byte("c"), 8, keys.KindSet, []byte("c"))
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	r, _ := disk.Open("t.sst")
	tbl, err := Open(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, seq, _, ok := tbl.Get([]byte("a"))
	if !ok || string(v) != "a-new" || seq != 9 {
		t.Fatalf("Get(a) = %q seq=%d", v, seq)
	}
	_, seq, kind, ok := tbl.Get([]byte("b"))
	if !ok || kind != keys.KindDelete || seq != 7 {
		t.Fatalf("Get(b): seq=%d kind=%d ok=%v — newest must be the tombstone", seq, kind, ok)
	}
}

func TestIteratorFullScan(t *testing.T) {
	tbl, _ := buildTestTable(t, 500, 32)
	it := tbl.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		want := fmt.Sprintf("key-%06d", i)
		if string(it.Key()) != want {
			t.Fatalf("scan[%d] = %q, want %q", i, it.Key(), want)
		}
		if it.Seq() != uint64(i+1) {
			t.Fatalf("scan[%d] seq = %d", i, it.Seq())
		}
		i++
	}
	if i != 500 {
		t.Fatalf("scanned %d entries, want 500", i)
	}
}

func TestIteratorSeek(t *testing.T) {
	tbl, _ := buildTestTable(t, 500, 32)
	it := tbl.NewIterator()
	it.Seek([]byte("key-000250"))
	if !it.Valid() || string(it.Key()) != "key-000250" {
		t.Fatalf("Seek exact landed on %q", it.Key())
	}
	it.Seek([]byte("key-0002505")) // between 250 and 251
	if !it.Valid() || string(it.Key()) != "key-000251" {
		t.Fatalf("Seek between landed on %q", it.Key())
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Error("Seek past end still valid")
	}
	// Seek to a block boundary region and iterate across it.
	it.Seek([]byte("key-000100"))
	for j := 100; j < 200; j++ {
		if !it.Valid() || string(it.Key()) != fmt.Sprintf("key-%06d", j) {
			t.Fatalf("cross-block iteration broke at %d (%q)", j, it.Key())
		}
		it.Next()
	}
}

func TestPrefixCompressionRoundTrip(t *testing.T) {
	// Keys sharing long prefixes stress the restart/shared-prefix logic.
	disk := vfs.NewDisk(vfs.NVMBlockProfile())
	w := disk.Create("p.sst")
	b := NewBuilder(w, BuilderOptions{BlockSize: 256}) // many small blocks
	var want []string
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("user/profile/%04d/settings", i)
		want = append(want, k)
		if err := b.Add([]byte(k), uint64(i+1), keys.KindSet, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	r, _ := disk.Open("p.sst")
	tbl, err := Open(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := tbl.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key()) != want[i] {
			t.Fatalf("prefix-compressed key %d = %q, want %q", i, it.Key(), want[i])
		}
		if string(it.Value()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("value %d mismatch", i)
		}
		i++
	}
	if i != 300 {
		t.Fatalf("got %d entries", i)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	disk := vfs.NewDisk(vfs.NVMBlockProfile())
	w := disk.Create("bad.sst")
	w.Write([]byte("this is not an sstable, not even close......."))
	r, _ := disk.Open("bad.sst")
	if _, err := Open(r, nil); err == nil {
		t.Error("Open accepted garbage")
	}
	w2 := disk.Create("tiny.sst")
	w2.Write([]byte("x"))
	r2, _ := disk.Open("tiny.sst")
	if _, err := Open(r2, nil); err == nil {
		t.Error("Open accepted tiny file")
	}
}

func TestBloomFilterSkipsAbsent(t *testing.T) {
	tbl, _ := buildTestTable(t, 1000, 16)
	if tbl.Filter() == nil {
		t.Fatal("no filter built")
	}
	misses := 0
	for i := 0; i < 1000; i++ {
		if !tbl.Filter().MayContain([]byte(fmt.Sprintf("key-%06d", i))) {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("%d false negatives", misses)
	}
}
