package bloom

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 16)
	for i := 0; i < 1000; i++ {
		f.Add(key(i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(key(i)) {
			t.Fatalf("false negative for %s", key(i))
		}
	}
	if f.Keys() != 1000 {
		t.Errorf("Keys() = %d", f.Keys())
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10000, 16)
	for i := 0; i < 10000; i++ {
		f.Add(key(i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%08d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// 16 bits/key with 11 probes has theoretical FPR ≈ 4.6e-4;
	// allow generous slack for hash quality.
	if rate > 0.01 {
		t.Errorf("false positive rate %.4f too high", rate)
	}
	if est := f.FalsePositiveRate(); est > 0.01 {
		t.Errorf("estimated FPR %.4f too high", est)
	}
}

func TestMerge(t *testing.T) {
	a := New(1000, 16)
	b := New(1000, 16)
	for i := 0; i < 500; i++ {
		a.Add(key(i))
	}
	for i := 500; i < 1000; i++ {
		b.Add(key(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !a.MayContain(key(i)) {
			t.Fatalf("merged filter lost %s", key(i))
		}
	}
	if a.Keys() != 1000 {
		t.Errorf("merged Keys() = %d", a.Keys())
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := New(1000, 16)
	b := New(100000, 16)
	if err := a.Merge(b); err == nil {
		t.Error("merging different-size filters should fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("merging nil should be a no-op, got %v", err)
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	// Property: a key added to either side is present after merge.
	f := func(ks [][]byte) bool {
		a, b := New(64, 16), New(64, 16)
		for i, k := range ks {
			if i%2 == 0 {
				a.Add(k)
			} else {
				b.Add(k)
			}
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		for _, k := range ks {
			if !a.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := New(256, 16)
	for i := 0; i < 256; i++ {
		f.Add(key(i))
	}
	dec, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if !dec.MayContain(key(i)) {
			t.Fatalf("decoded filter lost %s", key(i))
		}
	}
	if dec.Keys() != f.Keys() || dec.probes != f.probes {
		t.Error("decoded metadata mismatch")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("Decode of garbage should fail")
	}
}

func TestTinyAndDegenerateFilters(t *testing.T) {
	f := New(0, 0) // clamped internally
	f.Add([]byte("x"))
	if !f.MayContain([]byte("x")) {
		t.Error("tiny filter false negative")
	}
	empty := New(100, 16)
	if empty.FillRatio() != 0 {
		t.Error("empty filter has set bits")
	}
}

// TestMaskProbesMatchModulo is the golden test for the probe position: at
// power-of-two sizes h & mask is h % n, so a filter sets exactly the bits
// the modulo construction sets, and the default filters did not change.
func TestMaskProbesMatchModulo(t *testing.T) {
	for _, nbits := range []int{64, 1 << 10, 1 << 18} {
		f := New(nbits/16, 16)
		if got := len(f.bits) * 64; got != nbits {
			t.Fatalf("New(%d, 16) holds %d bits, want %d", nbits/16, got, nbits)
		}
		ref := make([]uint64, nbits/64)
		for i := 0; i < nbits/16; i++ {
			k := key(i)
			f.Add(k)
			h := Hash(k)
			delta := h>>17 | h<<47
			for p := 0; p < f.probes; p++ {
				pos := h % uint64(nbits)
				ref[pos/64] |= 1 << (pos % 64)
				h += delta
			}
		}
		for i := range ref {
			if f.bits[i] != ref[i] {
				t.Fatalf("%d bits: word %d is %#x, the modulo reference sets %#x", nbits, i, f.bits[i], ref[i])
			}
		}
	}
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ keys, bitsPerKey, want int }{
		{1000, 16, 1 << 14},
		{1 << 14, 16, 1 << 18},
		{1 << 14, 10, 1 << 18},
		{1, 1, 64},
	} {
		f := New(tc.keys, tc.bitsPerKey)
		if got := len(f.bits) * 64; got != tc.want || f.mask != uint64(tc.want-1) {
			t.Errorf("New(%d, %d): %d bits, mask %#x; want %d bits", tc.keys, tc.bitsPerKey, got, f.mask, tc.want)
		}
	}
}

func TestDecodeRejectsNonPowerOfTwo(t *testing.T) {
	enc := New(256, 16).Encode()
	if _, err := Decode(enc[:len(enc)-8]); err == nil {
		t.Error("Decode accepted a word count that is not a power of two")
	}
	if _, err := Decode(enc[:12]); err == nil {
		t.Error("Decode accepted a filter of no words")
	}
}

// TestConcurrentProbesDuringMerge probes a filter from several goroutines
// while Merge ORs another into it in place (run it with -race): a key of
// the target never reads absent, a key of the source is found in one of
// the two filters while the merge runs, and in the target once it is done.
func TestConcurrentProbesDuringMerge(t *testing.T) {
	const n, readers = 1 << 14, 4
	ks := make([][]byte, 2*n)
	for i := range ks {
		ks[i] = key(i)
	}
	for round := 0; round < 10; round++ {
		dst, src := New(n, 16), New(n, 16)
		for i := 0; i < n; i++ {
			dst.Add(ks[2*i])
			src.Add(ks[2*i+1])
		}
		done := make(chan struct{})
		errs := make(chan error, readers)
		var started, wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			started.Add(1)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				started.Done()
				for i := g; ; i = (i + readers) % len(ks) {
					select {
					case <-done:
						return
					default:
					}
					k := ks[i]
					if i%2 == 0 && !dst.MayContain(k) || i%2 == 1 && !dst.MayContain(k) && !src.MayContain(k) {
						errs <- fmt.Errorf("false negative for %s during the merge", k)
						return
					}
				}
			}(g)
		}
		started.Wait()
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		close(done)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		for _, k := range ks {
			if !dst.MayContain(k) {
				t.Fatalf("false negative for %s after the merge", k)
			}
		}
	}
}

// TestResetEqualsNew: a reset filter is indistinguishable from a new one
// of the same parameters — no bit, no key count — and still merges with
// its peers.
func TestResetEqualsNew(t *testing.T) {
	f := New(1000, 16)
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	f.Reset()
	if !bytes.Equal(f.Encode(), New(1000, 16).Encode()) {
		t.Fatal("a reset filter differs from a new one")
	}
	g := New(1000, 16)
	g.Add([]byte("other"))
	if err := f.Merge(g); err != nil || !f.MayContain([]byte("other")) || f.Keys() != 1 {
		t.Fatalf("merge into a reset filter: %v, keys %d", err, f.Keys())
	}
}
