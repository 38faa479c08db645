package miodb

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

// reader is the read surface DB and Snapshot share.
type reader interface {
	Get(key []byte) ([]byte, error)
	GetMulti(keys [][]byte) ([][]byte, []error)
	Scan(start []byte, limit int, fn func(key, value []byte) bool) error
	NewIterator() Iterator
}

// checkReader compares every read r offers against model over the key
// universe: Get and GetMulti per key, a full Scan, a bounded Scan from
// the middle, a Scan its callback stops, and an iterator walk and seek.
func checkReader(t *testing.T, what string, r reader, model map[string]string, universe []string) {
	t.Helper()
	live := make([]string, 0, len(model))
	for k := range model {
		live = append(live, k)
	}
	sort.Strings(live)

	getKeys := make([][]byte, len(universe))
	for i, k := range universe {
		getKeys[i] = []byte(k)
		want, ok := model[k]
		v, err := r.Get(getKeys[i])
		switch {
		case ok && (err != nil || string(v) != want):
			t.Fatalf("%s: Get(%s) = %q, %v; want %q", what, k, v, err, want)
		case !ok && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: Get(%s) = %q, %v; want ErrNotFound", what, k, v, err)
		}
	}
	vals, errs := r.GetMulti(getKeys)
	if len(vals) != len(universe) || len(errs) != len(universe) {
		t.Fatalf("%s: GetMulti returned %d values, %d errors for %d keys", what, len(vals), len(errs), len(universe))
	}
	for i, k := range universe {
		want, ok := model[k]
		switch {
		case ok && (errs[i] != nil || string(vals[i]) != want):
			t.Fatalf("%s: GetMulti[%s] = %q, %v; want %q", what, k, vals[i], errs[i], want)
		case !ok && !errors.Is(errs[i], ErrNotFound):
			t.Fatalf("%s: GetMulti[%s] = %q, %v; want ErrNotFound", what, k, vals[i], errs[i])
		}
	}

	scan := func(start string, limit, stopAfter int) []string {
		var got []string
		err := r.Scan([]byte(start), limit, func(k, v []byte) bool {
			if want := model[string(k)]; string(v) != want {
				t.Fatalf("%s: Scan yielded %s=%q; want %q", what, k, v, want)
			}
			got = append(got, string(k))
			return stopAfter <= 0 || len(got) < stopAfter
		})
		if err != nil {
			t.Fatalf("%s: Scan(%q, %d): %v", what, start, limit, err)
		}
		return got
	}
	from := func(start string, n int) []string {
		i := sort.SearchStrings(live, start)
		out := live[i:]
		if n > 0 && len(out) > n {
			out = out[:n]
		}
		return out
	}
	sameKeys := func(op string, got, want []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %s yielded %d keys %v; want %d keys %v", what, op, len(got), got, len(want), want)
		}
	}
	sameKeys("full Scan", scan("", 0, 0), live)
	sameKeys("Scan(k0075, 7)", scan("k0075", 7, 0), from("k0075", 7))
	sameKeys("Scan stopped after 3", scan("k0010", 0, 3), from("k0010", 3))

	walk := func(seek string) []string {
		it := r.NewIterator()
		defer it.Close()
		var walked []string
		if seek == "" {
			it.SeekToFirst()
		} else {
			it.Seek([]byte(seek))
		}
		for ; it.Valid(); it.Next() {
			if want := model[string(it.Key())]; string(it.Value()) != want {
				t.Fatalf("%s: iterator at %s = %q; want %q", what, it.Key(), it.Value(), want)
			}
			walked = append(walked, string(it.Key()))
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: iterator Err = %v", what, err)
		}
		return walked
	}
	sameKeys("iterator walk", walk(""), live)
	sameKeys("iterator walk from k0123", walk("k0123"), from("k0123", 0))
}

// TestPublicSurfaceOnBothArms drives DeleteRange, GetMulti, Write, a
// Snapshot with each of its reads and Err through the public DB on a
// single engine and on a four-shard router, against a map model: the
// live store must match the model after every write, and a snapshot
// must keep matching the model as of its capture while later writes,
// range deletes and a flush go by.
func TestPublicSurfaceOnBothArms(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("Shards=%d", shards), func(t *testing.T) {
			db, err := Open(&Options{Shards: shards, MemTableSize: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			key := func(i int) string { return fmt.Sprintf("k%04d", i) }
			var universe []string
			for i := 0; i < 220; i++ {
				universe = append(universe, key(i))
			}
			model := map[string]string{}
			for i := 0; i < 200; i++ {
				k, v := key(i), fmt.Sprintf("v%d", i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			checkReader(t, "after puts", db, model, universe)

			// One batch with puts, a delete and a range delete, which a
			// router must split and broadcast.
			b := &Batch{}
			b.Put([]byte(key(205)), []byte("batch-205"))
			b.Put([]byte(key(3)), []byte("batch-3"))
			b.Delete([]byte(key(4)))
			b.DeleteRange([]byte(key(20)), []byte(key(30)))
			b.Put([]byte(key(25)), []byte("batch-25")) // after the range: survives
			if err := db.Write(b); err != nil {
				t.Fatal(err)
			}
			model[key(205)] = "batch-205"
			model[key(3)] = "batch-3"
			delete(model, key(4))
			for i := 20; i < 30; i++ {
				delete(model, key(i))
			}
			model[key(25)] = "batch-25"
			checkReader(t, "after batch", db, model, universe)

			if err := db.DeleteRange([]byte(key(50)), []byte(key(80))); err != nil {
				t.Fatal(err)
			}
			for i := 50; i < 80; i++ {
				delete(model, key(i))
			}
			checkReader(t, "after DeleteRange", db, model, universe)

			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			frozen := make(map[string]string, len(model))
			for k, v := range model {
				frozen[k] = v
			}

			// Writes after the capture: overwrites, new keys, a point
			// delete, a range delete with an open end, and a flush.
			for i := 100; i < 140; i++ {
				k, v := key(i), fmt.Sprintf("w%d", i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			if err := db.Delete([]byte(key(0))); err != nil {
				t.Fatal(err)
			}
			delete(model, key(0))
			if err := db.DeleteRange([]byte(key(180)), nil); err != nil {
				t.Fatal(err)
			}
			for k := range model {
				if k >= key(180) {
					delete(model, k)
				}
			}
			checkReader(t, "live after snapshot", db, model, universe)
			checkReader(t, "snapshot", snap, frozen, universe)

			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			checkReader(t, "live after flush", db, model, universe)
			checkReader(t, "snapshot after flush", snap, frozen, universe)

			// An iterator derived from the snapshot outlives its Close.
			it := snap.NewIterator()
			defer it.Close()
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if err := snap.Close(); err != nil {
				t.Fatalf("second snapshot Close: %v", err)
			}
			n := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				n++
			}
			if err := it.Err(); err != nil || n != len(frozen) {
				t.Fatalf("iterator after snapshot Close: %d keys, err %v; want %d", n, err, len(frozen))
			}
			if _, err := snap.Get([]byte(key(1))); !errors.Is(err, ErrSnapshotClosed) {
				t.Fatalf("Get on a closed snapshot: %v; want ErrSnapshotClosed", err)
			}

			if err := db.Err(); err != nil {
				t.Fatalf("Err on a healthy store: %v", err)
			}
		})
	}
}
