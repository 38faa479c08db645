package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWriteAmpFillSmall gates the NVM write amplification of the shape
// the benchmark's fill-small workload runs: default Options, one writer,
// 90 000 Puts of 128-byte values over 30 000 keys drawn uniformly with a
// fixed seed, then FlushAll. Write amplification is NVM device bytes
// written from Open on, divided by the user key and value bytes. It is a
// count, not a timing: the background's timing moves it by about 0.1 %
// from run to run.
//
// While every zero-copy migration stored its persisted insertion mark
// twice, to set it and to clear it, this read 3.735–3.740; with one store
// per migrated node and one clear per merge it reads 3.576–3.580 (amd64,
// Go 1.24, 2 vCPUs; 18 runs: -count 10, -cpu 1 -count 5 and -race
// -count 3). The bound is 3.60: the old figure fails it.
func TestWriteAmpFillSmall(t *testing.T) {
	const puts, distinct, bound = 90_000, 30_000, 3.60
	db := mustOpen(t, Options{})
	defer db.Close()
	rnd := rand.New(rand.NewSource(1))
	value := make([]byte, 128)
	key := make([]byte, 0, 16)
	for i := 0; i < puts; i++ {
		key = fmt.Appendf(key[:0], "user%012d", rnd.Intn(distinct))
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	_, nvmDev := db.Devices()
	wa := float64(nvmDev.Counters().BytesWritten) / float64(db.Stats().UserBytesWritten)
	t.Logf("write amplification %.4f", wa)
	if wa > bound {
		t.Fatalf("write amplification %.4f, bound %.2f", wa, bound)
	}
}
