// Package bloom implements the mergeable bloom filter MioDB attaches to
// every PMTable (§4.6): fixed-size bit arrays that can be OR-merged when
// two PMTables are compacted, so filters propagate down the elastic buffer
// without rehashing any key.
//
// The filter uses double hashing (Kirsch–Mitzenmatcher) over a 64-bit FNV-1a
// base hash, the standard construction in LSM stores. The paper configures
// 16 bits per key; with the optimal k = bits/key × ln 2 ≈ 11 probes the
// false-positive rate is ≈ 4.6×10⁻⁴ — and doubles in effect each time two
// full filters merge, which is exactly the level-count trade-off Fig 9
// studies.
//
// Every filter holds a power-of-two number of bits, so a probe position is
// h & mask rather than h % n. A zero-copy merge ORs the drained table's
// bits into the surviving table's filter in place: OR only adds bits, so
// a reader probing that filter mid-merge sees a superset of its keys and
// never a false negative. Readers load words atomically and the one
// writer (Add or Merge) stores each changed word atomically, which makes
// the in-place merge race-clean. A memtable's filter is filled by Add
// while Gets probe it, and its one-piece flush hands it to the PMTable as
// that table's filter.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Filter is a fixed-size mergeable bloom filter. One goroutine owns it and
// is its only writer: the one building the table or filling the memtable
// (Add) or merging into it (Merge). MayContain and FillRatio are safe
// beside Add and Merge; Keys and Encode are for the owner only.
type Filter struct {
	bits   []uint64
	mask   uint64 // len(bits)*64 - 1: the bit count is a power of two
	probes int
	nkeys  int
}

// New creates a filter sized for expectedKeys at bitsPerKey (the paper uses
// 16), rounded up to a power-of-two bit count. All PMTable filters in one
// store are created with identical parameters so that Merge is well
// defined.
func New(expectedKeys, bitsPerKey int) *Filter {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	nbits := expectedKeys * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	probes := int(float64(bitsPerKey) * math.Ln2)
	if probes < 1 {
		probes = 1
	}
	if probes > 30 {
		probes = 30
	}
	nbits = 1 << bits.Len(uint(nbits-1))
	return &Filter{
		bits:   make([]uint64, nbits/64),
		mask:   uint64(nbits - 1),
		probes: probes,
	}
}

// Add inserts key into the filter. Readers may probe f meanwhile: each
// changed word is stored atomically, as Merge stores it. The caller must
// be the filter's only writer.
func (f *Filter) Add(key []byte) {
	h := Hash(key)
	delta := h>>17 | h<<47
	for i := 0; i < f.probes; i++ {
		pos := h & f.mask
		// The owner is the only writer, so a plain read of its own word
		// is current.
		if word, bit := &f.bits[pos/64], uint64(1)<<(pos%64); *word&bit == 0 {
			atomic.StoreUint64(word, *word|bit)
		}
		h += delta
	}
	f.nkeys++
}

// Reset empties f for reuse as a fresh filter of the same size and probe
// count. No reader may probe f meanwhile: a store resets a filter only
// after its readers' grace period has freed it.
func (f *Filter) Reset() {
	clear(f.bits)
	f.nkeys = 0
}

// MayContain reports whether key was possibly added. False means definitely
// absent. It is safe beside a concurrent Add or Merge into f.
func (f *Filter) MayContain(key []byte) bool { return f.MayContainHash(Hash(key)) }

// MayContainHash is MayContain for a key already hashed with Hash: a point
// read that probes several filters hashes its key once.
func (f *Filter) MayContainHash(h uint64) bool {
	delta := h>>17 | h<<47
	for i := 0; i < f.probes; i++ {
		pos := h & f.mask
		if atomic.LoadUint64(&f.bits[pos/64])&(1<<(pos%64)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Merge ORs other into f in place. Both filters must have been created
// with the same size and probe count; Merge returns an error otherwise.
// This is the paper's "OR operations to implement a mergeable bloom
// filter". Readers may probe f meanwhile: each word only gains bits, and
// a changed word is stored atomically. other must not change during the
// call.
func (f *Filter) Merge(other *Filter) error {
	if other == nil {
		return nil
	}
	if len(f.bits) != len(other.bits) || f.probes != other.probes {
		return fmt.Errorf("bloom: merging incompatible filters (%d/%d bits, %d/%d probes)",
			len(f.bits)*64, len(other.bits)*64, f.probes, other.probes)
	}
	for i, w := range other.bits {
		// f's owner is its only writer, so a plain read of its own word
		// is current.
		if old := f.bits[i]; old|w != old {
			atomic.StoreUint64(&f.bits[i], old|w)
		}
	}
	f.nkeys += other.nkeys
	return nil
}

// Keys returns the number of keys added (including via Merge). It is for
// the filter's owner only.
func (f *Filter) Keys() int { return f.nkeys }

// FillRatio returns the fraction of set bits, a proxy for the
// false-positive rate ((fill)^probes).
func (f *Filter) FillRatio() float64 {
	set := 0
	for i := range f.bits {
		set += bits.OnesCount64(atomic.LoadUint64(&f.bits[i]))
	}
	return float64(set) / float64(len(f.bits)*64)
}

// FalsePositiveRate estimates the current false-positive probability.
func (f *Filter) FalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.probes))
}

// Encode serializes the filter for storage in an SSTable or superblock. It
// is for the filter's owner only.
func (f *Filter) Encode() []byte {
	out := make([]byte, 12+len(f.bits)*8)
	binary.LittleEndian.PutUint32(out[0:4], uint32(f.probes))
	binary.LittleEndian.PutUint64(out[4:12], uint64(f.nkeys))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[12+i*8:], w)
	}
	return out
}

// Decode reconstructs a filter serialized by Encode. It refuses a word
// count that is not a power of two, which no New filter has.
func Decode(data []byte) (*Filter, error) {
	words := (len(data) - 12) / 8
	if len(data) < 12 || (len(data)-12)%8 != 0 || words == 0 || words&(words-1) != 0 {
		return nil, fmt.Errorf("bloom: malformed filter encoding (%d bytes)", len(data))
	}
	f := &Filter{
		probes: int(binary.LittleEndian.Uint32(data[0:4])),
		nkeys:  int(binary.LittleEndian.Uint64(data[4:12])),
		bits:   make([]uint64, words),
		mask:   uint64(words*64 - 1),
	}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[12+i*8:])
	}
	return f, nil
}

// Hash is the 64-bit base hash every probe position of key derives from
// (FNV-1a, inlined to avoid the hash/fnv allocation).
func Hash(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
