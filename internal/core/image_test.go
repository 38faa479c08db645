package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointAndOpenImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.img")

	opts := smallOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for i := 0; i < 2500; i++ {
		k := fmt.Sprintf("key-%05d", i%700)
		v := fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
	}
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	// The store keeps working after a checkpoint.
	db.Put([]byte("post-checkpoint"), []byte("yes"))
	if v, err := db.Get([]byte("post-checkpoint")); err != nil || string(v) != "yes" {
		t.Fatal("store broken after checkpoint")
	}
	db.Close()

	// A brand-new "process": load the image and verify everything up to
	// the checkpoint.
	re, err := OpenImage(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("restored Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	// post-checkpoint data must NOT be there (written after the image).
	if _, err := re.Get([]byte("post-checkpoint")); err != ErrNotFound {
		t.Errorf("post-checkpoint key visible in image: %v", err)
	}
	// The restored store accepts new writes and checkpoints again.
	re.Put([]byte("second-life"), []byte("ok"))
	path2 := filepath.Join(dir, "store2.img")
	if err := re.Checkpoint(path2); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenImage(path2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if v, err := re2.Get([]byte("second-life")); err != nil || string(v) != "ok" {
		t.Fatal("second-generation image broken")
	}
}

func TestOpenImageRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.img")
	os.WriteFile(path, []byte("definitely not an image"), 0o644)
	if _, err := OpenImage(path, smallOpts()); err == nil {
		t.Error("garbage image accepted")
	}
	if _, err := OpenImage(filepath.Join(dir, "missing.img"), smallOpts()); err == nil {
		t.Error("missing image accepted")
	}
}

// TestRecoverRefusesSuperblockWithoutGeneration: a superblock whose
// pointer word is zero (as in an image written before the superblock held
// one) or names a region that does not open with a snapshot is refused
// with a named error, never decoded as manifest records.
func TestRecoverRefusesSuperblockWithoutGeneration(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	walBase := uint64(db.current.Load().mem.log.Region().Base())
	img := db.CrashForTest()
	super := img.Space.Region(0)
	ptr := super.Base().Add(genPtrOff)
	gen := super.Load64(ptr)

	for _, bad := range []uint64{0, walBase, gen + 8} {
		super.Store64(ptr, bad)
		if re, err := Recover(img, opts); !errors.Is(err, errNoGeneration) {
			if err == nil {
				re.Close()
			}
			t.Fatalf("pointer %#x: recover: %v, want %v", bad, err, errNoGeneration)
		}
	}
	super.Store64(ptr, gen)
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, err := re.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get(k) = %q, %v after restoring the pointer", v, err)
	}
}

func TestOpenImageDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.img")
	opts := smallOpts()
	db := mustOpen(t, opts)
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("v"), 64))
	}
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Flip a byte deep inside the image.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := OpenImage(path, opts); err == nil {
		t.Error("corrupted image accepted (checksum miss)")
	}
}

func TestCheckpointWithConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 1500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i%500)), []byte(fmt.Sprintf("v%d", i)))
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := db.Get([]byte(fmt.Sprintf("key-%04d", 123))); err != nil {
				done <- err
				return
			}
		}
	}()
	path := filepath.Join(dir, "live.img")
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("reader failed during checkpoint: %v", err)
	}
	re, err := OpenImage(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledLogRecovers: a batch commit larger than the memtable's grain
// spills the memtable and its log into further short chunks. The log
// replays every record after a crash, and after a checkpoint-image round
// trip, where the image pads each short chunk with zeros and the loader
// backs every chunk in full.
func TestSpilledLogRecovers(t *testing.T) {
	opts := smallOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for round := 0; round < 2; round++ {
		var b Batch
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%04d", (i*7+round)%500)
			v := fmt.Sprintf("round-%d-%0100d", round, i)
			b.Put([]byte(k), []byte(v))
			golden[k] = v
		}
		if err := db.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	log := db.current.Load().mem.log.Region()
	if log.Size() <= int64(log.ChunkSize()) || log.Used() >= log.Size() || log.Grain() >= log.ChunkSize() {
		t.Fatalf("active log did not spill into short chunks: size %d used %d grain %d stride %d",
			log.Size(), log.Used(), log.Grain(), log.ChunkSize())
	}
	var image bytes.Buffer
	db.commitMu.Lock()
	db.mu.Lock()
	err := db.WriteImage(&image)
	db.mu.Unlock()
	db.commitMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	verify := func(what string, re *DB) {
		t.Helper()
		defer re.Close()
		for k, v := range golden {
			if got, err := re.Get([]byte(k)); err != nil || string(got) != v {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", what, k, got, err, v)
			}
		}
	}
	re, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	verify("after crash", re)
	img, err := ReadImage(&image)
	if err != nil {
		t.Fatal(err)
	}
	if re, err = Recover(img, opts); err != nil {
		t.Fatal(err)
	}
	verify("after image round trip", re)
}
