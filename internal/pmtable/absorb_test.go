package pmtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
)

// absorbTwoSearches is AbsorbWith searching for every entry from the
// repository's head: FindGE for the repository's newest version of the
// key, then InsertEntry, which searches again, and RemoveAfter / Remove,
// which search once more per node unlinked. Kept as the reference the
// fingered form — one cold search, then a carried splice — is held to.
func absorbTwoSearches(r *Repository, t *Table, p AbsorbPolicy) error {
	var lastKey []byte
	lastValid := false
	it := t.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		key := it.Key()
		if lastValid && bytes.Equal(key, lastKey) {
			p.onDrop(it.Value(), it.Kind())
			continue
		}
		lastKey = append(lastKey[:0], key...)
		lastValid = true
		if p.Skip != nil && p.Skip(key, it.Seq(), it.Kind()) {
			p.onDrop(it.Value(), it.Kind())
			continue
		}
		existing := r.list.FindGE(key)
		hasExisting := !existing.IsNil() && bytes.Equal(existing.Key(), key)
		if hasExisting && existing.Seq() >= it.Seq() {
			p.onDrop(it.Value(), it.Kind())
			continue
		}
		if it.Kind() == keys.KindDelete {
			if !hasExisting {
				continue
			}
			if p.canDrop(it.Seq()) {
				for {
					ex := r.list.FindGE(key)
					if ex.IsNil() || !bytes.Equal(ex.Key(), key) {
						break
					}
					if removed := r.list.Remove(key, ex.Seq()); !removed.IsNil() {
						r.garbage += removed.Size()
						p.onDrop(removed.Value(), removed.Kind())
					}
				}
				continue
			}
			if _, err := r.list.InsertEntry(key, nil, it.Seq(), keys.KindDelete); err != nil {
				return err
			}
			continue
		}
		value := it.Value()
		n, err := r.list.InsertEntry(key, value, it.Seq(), it.Kind())
		if err != nil {
			return err
		}
		for p.canDrop(it.Seq()) {
			d := r.list.RemoveAfter(n)
			if d.IsNil() {
				break
			}
			r.garbage += d.Size()
			p.onDrop(d.Value(), d.Kind())
		}
	}
	return nil
}

// absorbSide is one of the two repositories an equivalence test feeds the
// same tables: its own device, and the drops its absorbs reported.
type absorbSide struct {
	nv    *nvm.Device
	repo  *Repository
	drops []string
}

func newAbsorbSide(t *testing.T) absorbSide {
	t.Helper()
	_, nv := devices()
	repo, err := NewRepository(nv, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return absorbSide{nv: nv, repo: repo}
}

// sameAbsorb requires got to equal the reference: the list entry for
// entry, the drops observed in order, the accounting.
func sameAbsorb(t *testing.T, what string, got, want *absorbSide) {
	t.Helper()
	diffVersions(t, what, collect(got.repo.NewIterator()), collect(want.repo.NewIterator()))
	if n, err := got.repo.List().CheckInvariants(); err != nil || int64(n) != got.repo.Count() {
		t.Fatalf("%s: %d nodes linked, Count %d: %v", what, n, got.repo.Count(), err)
	}
	if fmt.Sprint(got.drops) != fmt.Sprint(want.drops) {
		t.Fatalf("%s: drops observed %v, reference %v", what, got.drops, want.drops)
	}
	if got.repo.GarbageBytes() != want.repo.GarbageBytes() || got.repo.UserBytes() != want.repo.UserBytes() {
		t.Fatalf("%s: garbage/user bytes %d/%d, reference %d/%d", what,
			got.repo.GarbageBytes(), got.repo.UserBytes(), want.repo.GarbageBytes(), want.repo.UserBytes())
	}
}

// TestAbsorbMatchesTwoSearchAbsorb feeds the same randomized tables, under
// the same policy, to two repositories — one through AbsorbWith, one
// through the reference — and compares them entry for entry after every
// table, together with the drops observed and the accounting. Tables
// arrive oldest first as the engine delivers them, plus one out of order,
// which the defensive sequence check must turn into the same no-op.
func TestAbsorbMatchesTwoSearchAbsorb(t *testing.T) {
	cases := []struct {
		name string
		drop func(horizon uint64) func(uint64) bool
		skip func(key []byte, seq uint64, kind keys.Kind) bool
	}{
		{"always drop", func(uint64) func(uint64) bool { return nil }, nil},
		{"never drop", func(uint64) func(uint64) bool { return func(uint64) bool { return false } }, nil},
		{"snapshot horizon", func(h uint64) func(uint64) bool {
			return func(newerSeq uint64) bool { return newerSeq <= h }
		}, nil},
		{"horizon and range tombstone", func(h uint64) func(uint64) bool {
			return func(newerSeq uint64) bool { return newerSeq <= h }
		}, func(key []byte, seq uint64, _ keys.Kind) bool { return key[len(key)-1]%4 == 0 && seq%3 != 0 }},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 8; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			keySpace := []int{3, 12, 60, 400}[seed%4]
			const tables = 5
			// The third table is delivered last: by then newer versions of
			// its keys are in.
			order := []int{0, 1, 3, 4, 2}
			horizon := uint64(rnd.Intn(tables * newSeqBase))

			got, want := newAbsorbSide(t), newAbsorbSide(t)
			policy := func(s *absorbSide) AbsorbPolicy {
				return AbsorbPolicy{Skip: tc.skip, Drop: tc.drop(horizon), OnDrop: func(value []byte, kind keys.Kind) {
					s.drops = append(s.drops, fmt.Sprintf("%q/%d", value, kind))
				}}
			}
			var versions [tables][]version
			for i := range versions {
				versions[i] = randomVersions(rnd, 1+rnd.Intn(200), keySpace, 1+uint64(i)*newSeqBase)
			}
			for _, i := range order {
				what := fmt.Sprintf("%s, seed %d, table %d", tc.name, seed, i)
				dram, nv := devices()
				if err := got.repo.AbsorbWith(flushVersions(t, dram, nv, uint64(i+1), versions[i]), policy(&got)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := absorbTwoSearches(want.repo, flushVersions(t, dram, nv, uint64(i+1), versions[i]), policy(&want)); err != nil {
					t.Fatalf("%s: reference: %v", what, err)
				}
				sameAbsorb(t, what, &got, &want)
			}
		}
	}
}

// mix is a cheap deterministic hash for the property test's predicates.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// TestAbsorbFingerMatchesFindSplice is the property the absorb's finger
// rests on: over random tables — tombstones from none to most, key ranges
// that overlap the repository's, interleave with them or miss them
// entirely, gates that retain some duplicates (Drop false) and skip some
// entries — draining with a carried splice leaves the list, the garbage
// accounting and the OnDrop sequence of a search from the head per entry.
// The stores are the same stores (device writes and bytes written equal:
// write amplification cannot move); only reads are saved.
func TestAbsorbFingerMatchesFindSplice(t *testing.T) {
	var fingerReads, searchReads int64
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		salt := rnd.Uint64()
		tombstoneIn := 1 + rnd.Intn(8)
		dropOneIn, skipOneIn := uint64(1+rnd.Intn(4)), uint64(2+rnd.Intn(6))
		policy := func(drops *[]string) AbsorbPolicy {
			p := AbsorbPolicy{
				Drop: func(newerSeq uint64) bool { return mix(newerSeq^salt)%dropOneIn != 0 },
				Skip: func(key []byte, seq uint64, _ keys.Kind) bool {
					return mix(seq^salt^uint64(key[len(key)-1]))%skipOneIn == 0
				},
				OnDrop: func(value []byte, kind keys.Kind) {
					*drops = append(*drops, fmt.Sprintf("%q/%d", value, kind))
				},
			}
			if seed%5 == 0 {
				p.Drop = nil // always drop
			}
			if seed%7 == 0 {
				p.Skip = nil
			}
			return p
		}

		got, want := newAbsorbSide(t), newAbsorbSide(t)
		for table := 0; table < 6; table++ {
			// A window of the key space per table: present in, absent from
			// and straddling what the repository holds so far.
			lo, width := rnd.Intn(300), 1+rnd.Intn(200)
			vs := make([]version, 1+rnd.Intn(250))
			for i := range vs {
				v := version{
					key:  fmt.Sprintf("key-%04d", lo+rnd.Intn(width)),
					seq:  1 + uint64(table)*newSeqBase + uint64(i),
					kind: keys.KindSet,
				}
				if rnd.Intn(tombstoneIn) == 0 {
					v.kind = keys.KindDelete
				} else {
					v.value = fmt.Sprintf("%s@%d", v.key, v.seq)
				}
				vs[i] = v
			}
			what := fmt.Sprintf("seed %d, table %d", seed, table)
			dram, nv := devices()
			if err := got.repo.AbsorbWith(flushVersions(t, dram, nv, uint64(table+1), vs), policy(&got.drops)); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := absorbTwoSearches(want.repo, flushVersions(t, dram, nv, uint64(table+1), vs), policy(&want.drops)); err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			sameAbsorb(t, what, &got, &want)
			g, w := got.nv.Counters(), want.nv.Counters()
			if g.Writes != w.Writes || g.BytesWritten != w.BytesWritten {
				t.Fatalf("%s: %d device writes / %d B, reference %d / %d B", what, g.Writes, g.BytesWritten, w.Writes, w.BytesWritten)
			}
		}
		fingerReads += got.nv.Counters().Reads
		searchReads += want.nv.Counters().Reads
	}
	// Table by table a tiny repository can cost the finger a read more
	// than a descent from the head; over the whole run it must save.
	if fingerReads >= searchReads {
		t.Fatalf("the finger saved nothing: %d repository reads, %d searching per entry", fingerReads, searchReads)
	}
}
