package core

import (
	"fmt"
	"testing"
)

// TestChunkSizeInvariant pins the withDefaults interaction dynamic
// memtable sizing depends on: after defaulting, ChunkSize ≥
// MemTableSize/4 always holds, so SetMemTableTarget's cap of
// maxArenaChunks × ChunkSize can restore at least the configured
// MemTableSize in every legal configuration (see options.go and
// memtarget.go).
func TestChunkSizeInvariant(t *testing.T) {
	cases := []struct {
		name      string
		mem       int64
		chunk     int
		wantChunk int // 0 = don't check the exact value
	}{
		{"zero values take paper defaults", 0, 0, 256 << 10},
		{"explicit chunk above quarter kept", 64 << 10, 32 << 10, 32 << 10},
		{"chunk exactly a quarter kept", 64 << 10, 16 << 10, 16 << 10},
		{"chunk under a quarter snaps to memtable", 64 << 10, 8 << 10, 64 << 10},
		{"chunk one byte under a quarter snaps", 64 << 10, 16<<10 - 1, 64 << 10},
		{"big memtable with default chunk snaps", 4 << 20, 0, 0},
		{"tiny memtable keeps default chunk", 4 << 10, 0, 256 << 10},
		{"chunk much larger than memtable kept", 8 << 10, 1 << 20, 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := Options{MemTableSize: tc.mem, ChunkSize: tc.chunk}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantChunk != 0 && o.ChunkSize != tc.wantChunk {
				t.Errorf("ChunkSize = %d, want %d", o.ChunkSize, tc.wantChunk)
			}
			if int64(o.ChunkSize) < o.MemTableSize/4 {
				t.Errorf("invariant broken: ChunkSize %d < MemTableSize/4 (%d)",
					o.ChunkSize, o.MemTableSize/4)
			}
			if cap := maxArenaChunks * int64(o.ChunkSize); cap < o.MemTableSize {
				t.Errorf("dynamic cap %d cannot restore static size %d", cap, o.MemTableSize)
			}
		})
	}
}

func TestSetMemTableTargetClamp(t *testing.T) {
	db := mustOpen(t, smallOpts()) // ChunkSize 32 KB → bounds [4 KB, 128 KB]
	defer db.Close()

	lo, hi := db.MemTableTargetBounds()
	if lo != 4<<10 || hi != 128<<10 {
		t.Fatalf("bounds = [%d, %d], want [4096, 131072]", lo, hi)
	}
	if got := db.MemTableTarget(); got != 8<<10 {
		t.Fatalf("initial target = %d, want the configured MemTableSize", got)
	}
	cases := []struct{ set, want int64 }{
		{16 << 10, 16 << 10}, // in range: applied as-is
		{1, lo},              // below floor: clamped up
		{-5, lo},             // negative: clamped up
		{1 << 30, hi},        // above the arena cap: clamped down
		{hi, hi},             // exactly the cap: kept
	}
	for _, tc := range cases {
		if got := db.SetMemTableTarget(tc.set); got != tc.want {
			t.Errorf("SetMemTableTarget(%d) = %d, want %d", tc.set, got, tc.want)
		}
		if got := db.MemTableTarget(); got != tc.want {
			t.Errorf("MemTableTarget after Set(%d) = %d, want %d", tc.set, got, tc.want)
		}
	}
	if got := db.Stats().MemTableTargetBytes; got != hi {
		t.Errorf("Stats().MemTableTargetBytes = %d, want %d", got, hi)
	}
}

// TestResizeTakesEffectAtRotation drives the same write volume through a
// small memtable and then through a 4×-grown target: the grown phase must
// rotate far fewer times, proving SetMemTableTarget reaches the write
// path. It also checks the boundary rule: the target is visible
// immediately, but the active arena only adopts it at the next rotation.
func TestResizeTakesEffectAtRotation(t *testing.T) {
	db := mustOpen(t, smallOpts()) // 8 KB memtable, 32 KB chunks
	defer db.Close()

	val := make([]byte, 512)
	write := func(phase string, n int) {
		for i := 0; i < n; i++ {
			if err := db.Put([]byte(fmt.Sprintf("%s-%06d", phase, i)), val); err != nil {
				t.Fatal(err)
			}
		}
	}

	write("a", 200) // ~100 KB through an 8 KB memtable
	small := db.Stats().Rotations
	if small == 0 {
		t.Fatal("no rotations through the small memtable; workload too light")
	}

	db.SetMemTableTarget(32 << 10)
	if got := db.MemTableTarget(); got != 32<<10 {
		t.Fatalf("target not visible immediately: %d", got)
	}
	if err := db.FlushAll(); err != nil { // rotation boundary: next arena adopts it
		t.Fatal(err)
	}
	write("b", 200)
	grown := db.Stats().Rotations - small - 1 // minus the FlushAll rotation
	if grown <= 0 || grown*2 >= small {
		t.Errorf("rotations: small=%d grown=%d; want the grown phase well under half", small, grown)
	}
}

// TestOpenRefusesMemTableBelowFloor: a configured memtable below
// minMemTableTarget is refused by Open and by Recover, rather than
// opening a store that rotates on nearly every write.
func TestOpenRefusesMemTableBelowFloor(t *testing.T) {
	tiny := smallOpts()
	tiny.MemTableSize = 100
	if db, err := Open(tiny); err == nil {
		db.Close()
		t.Fatal("Open accepted a 100 B memtable")
	}
	atFloor := smallOpts()
	atFloor.MemTableSize = minMemTableTarget
	db := mustOpen(t, atFloor)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	img := db.CrashForTest()
	if re, err := Recover(img, tiny); err == nil {
		re.Close()
		t.Fatal("Recover accepted a 100 B memtable")
	}
	re, err := Recover(img, atFloor)
	if err != nil {
		t.Fatalf("Recover at the floor: %v", err)
	}
	re.Close()
}
