package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// rng is the harness's own generator (splitmix64-seeded xorshift64*), so
// the op stream a --seed produces does not depend on the Go release's
// math/rand and nothing in the engine shares its state.
type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRNG(seed uint64) *rng {
	s := mix64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &rng{s: s}
}

// deriveSeed gives every (trial, thread, purpose) its own stream.
func deriveSeed(seed uint64, parts ...uint64) uint64 {
	for _, p := range parts {
		seed = mix64(seed ^ mix64(p))
	}
	return seed
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfian draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta (Gray et
// al.'s method, the one YCSB uses); scrambled spreads the hot ranks over
// the key space by hashing, so hot keys are not neighbours.
type zipfian struct {
	n                 uint64
	theta, alpha      float64
	zetan, eta, half2 float64
}

func newZipfian(n uint64, theta float64) *zipfian {
	zeta := func(n uint64) float64 {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.half2 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipfian) scrambled(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half2:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return mix64(rank) % z.n
}

const keyLen = 16

// keySpace holds every key of a workload back to back: key i is
// "user" + i as 12 decimal digits, so byte order is id order and a scan
// from key i must return i, i+1, ….
type keySpace struct {
	n    int
	flat []byte
}

func newKeySpace(n int) *keySpace {
	ks := &keySpace{n: n, flat: make([]byte, n*keyLen)}
	for i := 0; i < n; i++ {
		k := ks.flat[i*keyLen : (i+1)*keyLen]
		copy(k, "user")
		v := i
		for d := keyLen - 1; d >= 4; d-- {
			k[d] = byte('0' + v%10)
			v /= 10
		}
	}
	return ks
}

func (ks *keySpace) key(id uint32) []byte {
	return ks.flat[int(id)*keyLen : (int(id)+1)*keyLen : (int(id)+1)*keyLen]
}

// keyID parses a key back to its id.
func keyID(key []byte) (uint32, bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	var v uint32
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint32(c-'0')
	}
	return v, true
}

// Values validate themselves: a 16-byte header (key id, version, length)
// followed by words derived from (id, version). A reader needs no copy of
// what was written, only the model's version for the key.
const valueHeader = 16

func fillValue(buf []byte, id, version uint32) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint32(buf[8:], version)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(buf)))
	w := mix64(uint64(id)<<32 | uint64(version))
	i := valueHeader
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
		w += 0x9e3779b97f4a7c15
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(w)
		w >>= 8
	}
}

// checkValue reports the version a value carries, and whether the value
// is exactly what fillValue wrote for (id, that version, wantLen).
func checkValue(val []byte, id uint32, wantLen int) (version uint32, ok bool) {
	if len(val) != wantLen || len(val) < valueHeader {
		return 0, false
	}
	if binary.LittleEndian.Uint64(val[0:]) != uint64(id) ||
		binary.LittleEndian.Uint32(val[12:]) != uint32(wantLen) {
		return 0, false
	}
	version = binary.LittleEndian.Uint32(val[8:])
	w := mix64(uint64(id)<<32 | uint64(version))
	i := valueHeader
	for ; i+8 <= len(val); i += 8 {
		if binary.LittleEndian.Uint64(val[i:]) != w {
			return version, false
		}
		w += 0x9e3779b97f4a7c15
	}
	for ; i < len(val); i++ {
		if val[i] != byte(w) {
			return version, false
		}
		w >>= 8
	}
	return version, true
}
