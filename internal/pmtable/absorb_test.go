package pmtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/keys"
)

// absorbTwoSearches is AbsorbWith as it was before it shared one descent
// between the lookup and the insert: FindGE for the repository's newest
// version of the key, then InsertEntry, which searches again. Kept as the
// reference the one-descent form is held to.
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
			r.copied += int64(len(key))
			continue
		}
		value := it.Value()
		n, err := r.list.InsertEntry(key, value, it.Seq(), it.Kind())
		if err != nil {
			return err
		}
		r.copied += int64(len(key) + len(value))
		for p.canDrop(it.Seq()) {
			d := r.list.RemoveAfter(n)
			if d.IsNil() {
				break
			}
			r.garbage += d.Size()
			p.onDrop(d.Value(), d.Kind())
		}
	}
	t.MarkReclaimable()
	return nil
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

			type side struct {
				repo  *Repository
				drops []string
			}
			var got, want side
			for _, s := range []*side{&got, &want} {
				_, nv := devices()
				repo, err := NewRepository(nv, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				s.repo = repo
			}
			policy := func(s *side) AbsorbPolicy {
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
				diffVersions(t, what, collect(got.repo.NewIterator()), collect(want.repo.NewIterator()))
				if n, err := got.repo.List().CheckInvariants(); err != nil || int64(n) != got.repo.Count() {
					t.Fatalf("%s: %d nodes linked, Count %d: %v", what, n, got.repo.Count(), err)
				}
				if fmt.Sprint(got.drops) != fmt.Sprint(want.drops) {
					t.Fatalf("%s: drops observed %v, reference %v", what, got.drops, want.drops)
				}
				if got.repo.GarbageBytes() != want.repo.GarbageBytes() || got.repo.CopiedBytes() != want.repo.CopiedBytes() ||
					got.repo.UserBytes() != want.repo.UserBytes() {
					t.Fatalf("%s: garbage/copied/user bytes %d/%d/%d, reference %d/%d/%d", what,
						got.repo.GarbageBytes(), got.repo.CopiedBytes(), got.repo.UserBytes(),
						want.repo.GarbageBytes(), want.repo.CopiedBytes(), want.repo.UserBytes())
				}
			}
		}
	}
}
