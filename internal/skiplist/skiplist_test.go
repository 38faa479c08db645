package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"miodb/internal/keys"
	"miodb/internal/vaddr"
)

func newList(t testing.TB) *List {
	t.Helper()
	s := vaddr.NewSpace()
	r := s.NewRegion(1<<20, nil)
	l, err := New(r)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestEmptyList(t *testing.T) {
	l := newList(t)
	if !l.Empty() {
		t.Error("new list not empty")
	}
	if _, _, _, ok := l.Get([]byte("a")); ok {
		t.Error("Get on empty list found something")
	}
	if !l.First(nil).IsNil() {
		t.Error("First on empty list not nil")
	}
	if !l.RemoveFirst(nil).IsNil() {
		t.Error("RemoveFirst on empty list not nil")
	}
	it := l.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("iterator valid on empty list")
	}
}

func TestInsertGet(t *testing.T) {
	l := newList(t)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v := []byte(fmt.Sprintf("val-%03d", i))
		if err := l.Insert(k, v, uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	if l.Count() != 100 {
		t.Errorf("Count = %d", l.Count())
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v, seq, kind, ok := l.Get(k)
		if !ok {
			t.Fatalf("Get(%s) missing", k)
		}
		if string(v) != fmt.Sprintf("val-%03d", i) || seq != uint64(i+1) || kind != keys.KindSet {
			t.Fatalf("Get(%s) = %q seq=%d kind=%d", k, v, seq, kind)
		}
	}
	if _, _, _, ok := l.Get([]byte("absent")); ok {
		t.Error("Get(absent) found something")
	}
	if n, err := l.CheckInvariants(); err != nil || n != 100 {
		t.Fatalf("invariants: n=%d err=%v", n, err)
	}
}

func TestMultipleVersionsNewestFirst(t *testing.T) {
	l := newList(t)
	k := []byte("k")
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Insert(k, []byte(fmt.Sprintf("v%d", seq)), seq, keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	v, seq, _, ok := l.Get(k)
	if !ok || string(v) != "v5" || seq != 5 {
		t.Fatalf("Get returned %q seq=%d, want v5 seq=5", v, seq)
	}
	// Iterate: versions must appear newest-first.
	it := l.NewIterator()
	want := uint64(5)
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if it.Seq() != want {
			t.Fatalf("iteration seq = %d, want %d", it.Seq(), want)
		}
		want--
	}
}

func TestTombstones(t *testing.T) {
	l := newList(t)
	k := []byte("k")
	if err := l.Insert(k, []byte("v"), 1, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(k, nil, 2, keys.KindDelete); err != nil {
		t.Fatal(err)
	}
	_, seq, kind, ok := l.Get(k)
	if !ok || kind != keys.KindDelete || seq != 2 {
		t.Fatalf("Get after delete: seq=%d kind=%d ok=%v", seq, kind, ok)
	}
}

func TestDuplicateSeqRejected(t *testing.T) {
	l := newList(t)
	if err := l.Insert([]byte("k"), []byte("v"), 7, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert([]byte("k"), []byte("v2"), 7, keys.KindSet); err == nil {
		t.Error("duplicate (key, seq) accepted")
	}
}

func TestValidation(t *testing.T) {
	l := newList(t)
	if err := l.Insert(nil, []byte("v"), 1, keys.KindSet); err == nil {
		t.Error("empty key accepted")
	}
	if err := l.Insert(make([]byte, maxKeyLen+1), nil, 1, keys.KindSet); err == nil {
		t.Error("oversized key accepted")
	}
	ro := Attach(l.Space(), l.Head(), nil)
	if err := ro.Insert([]byte("k"), []byte("v"), 1, keys.KindSet); err == nil {
		t.Error("insert into read-only list accepted")
	}
}

func TestIteratorSeek(t *testing.T) {
	l := newList(t)
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i*2)) // even keys only
		if err := l.Insert(k, []byte("v"), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	it := l.NewIterator()
	it.Seek([]byte("key-013")) // between 012 and 014
	if !it.Valid() || string(it.Key()) != "key-014" {
		t.Fatalf("Seek landed on %q", it.Key())
	}
	it.Seek([]byte("key-012")) // exact
	if !it.Valid() || string(it.Key()) != "key-012" {
		t.Fatalf("exact Seek landed on %q", it.Key())
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Error("Seek past end should invalidate")
	}
	it.Seek(nil)
	if !it.Valid() || string(it.Key()) != "key-000" {
		t.Error("Seek(nil) should land on first")
	}
}

func TestOrderedIterationRandomInserts(t *testing.T) {
	l := newList(t)
	rnd := rand.New(rand.NewSource(42))
	golden := map[string]string{}
	for seq := uint64(1); seq <= 500; seq++ {
		k := fmt.Sprintf("key-%04d", rnd.Intn(200))
		v := fmt.Sprintf("val-%d", seq)
		if err := l.Insert([]byte(k), []byte(v), seq, keys.KindSet); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	// Newest version visible through Get.
	for k, v := range golden {
		got, _, _, ok := l.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q, want %q", k, got, v)
		}
	}
	// Iteration sorted, and first version of each key is the newest.
	var prevKey []byte
	var prevSeq uint64
	seen := map[string]bool{}
	it := l.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := it.Key()
		if prevKey != nil {
			if c := keys.Compare(prevKey, prevSeq, k, it.Seq()); c >= 0 {
				t.Fatalf("iteration out of order at %q", k)
			}
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			if string(it.Value()) != golden[string(k)] {
				t.Fatalf("newest version of %q = %q, want %q", k, it.Value(), golden[string(k)])
			}
		}
		prevKey = append(prevKey[:0], k...)
		prevSeq = it.Seq()
	}
	if _, err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveFirstDrain(t *testing.T) {
	l := newList(t)
	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := l.Insert(k, []byte("v"), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		node := l.RemoveFirst(nil)
		if node.IsNil() {
			t.Fatalf("RemoveFirst returned nil at %d", i)
		}
		want := fmt.Sprintf("key-%03d", i)
		if string(node.Key()) != want {
			t.Fatalf("RemoveFirst order: got %q want %q", node.Key(), want)
		}
		if _, err := l.CheckInvariants(); err != nil {
			t.Fatalf("after removing %d: %v", i, err)
		}
	}
	if !l.Empty() || l.Count() != 0 {
		t.Error("list not empty after drain")
	}
}

func TestRemoveExact(t *testing.T) {
	l := newList(t)
	for i := 0; i < 20; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%02d", i)), []byte("v"), uint64(i+1), keys.KindSet)
	}
	if n := l.Remove([]byte("key-10"), 11); n.IsNil() {
		t.Fatal("Remove of present node failed")
	}
	if _, _, _, ok := l.Get([]byte("key-10")); ok {
		t.Error("removed key still found")
	}
	if n := l.Remove([]byte("key-10"), 11); !n.IsNil() {
		t.Error("double remove returned a node")
	}
	if n := l.Remove([]byte("key-05"), 999); !n.IsNil() {
		t.Error("Remove with wrong seq returned a node")
	}
	if _, err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertNodeMovesBetweenLists(t *testing.T) {
	space := vaddr.NewSpace()
	r1 := space.NewRegion(1<<20, nil)
	r2 := space.NewRegion(1<<20, nil)
	src, _ := New(r1)
	dst, _ := New(r2)
	for i := 0; i < 50; i++ {
		src.Insert([]byte(fmt.Sprintf("s-%02d", i)), []byte("sv"), uint64(i+1), keys.KindSet)
	}
	for i := 0; i < 50; i++ {
		dst.Insert([]byte(fmt.Sprintf("d-%02d", i)), []byte("dv"), uint64(100+i), keys.KindSet)
	}
	// Move every node from src into dst: the zero-copy primitive.
	for {
		n := src.RemoveFirst(nil)
		if n.IsNil() {
			break
		}
		dst.InsertNode(n)
	}
	if !src.Empty() {
		t.Fatal("src not drained")
	}
	if dst.Count() != 100 {
		t.Fatalf("dst count = %d", dst.Count())
	}
	if n, err := dst.CheckInvariants(); err != nil || n != 100 {
		t.Fatalf("dst invariants: n=%d err=%v", n, err)
	}
	for i := 0; i < 50; i++ {
		if _, _, _, ok := dst.Get([]byte(fmt.Sprintf("s-%02d", i))); !ok {
			t.Fatalf("moved key s-%02d missing", i)
		}
	}
}

func TestRemoveAfter(t *testing.T) {
	l := newList(t)
	l.Insert([]byte("a"), []byte("v1"), 1, keys.KindSet)
	l.Insert([]byte("a"), []byte("v2"), 2, keys.KindSet)
	l.Insert([]byte("b"), []byte("v3"), 3, keys.KindSet)
	newest := l.First(nil) // (a, 2)
	if newest.Seq() != 2 {
		t.Fatalf("first seq = %d", newest.Seq())
	}
	removed := l.RemoveAfter(newest)
	if removed.IsNil() || removed.Seq() != 1 {
		t.Fatalf("RemoveAfter removed seq %v", removed)
	}
	// Next call: successor is "b", different key — no removal.
	if n := l.RemoveAfter(newest); !n.IsNil() {
		t.Error("RemoveAfter crossed key boundary")
	}
	if _, err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersSingleWriter(t *testing.T) {
	l := newList(t)
	const n = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Every key already written must be found.
				it := l.NewIterator()
				prev := -1
				for it.SeekToFirst(); it.Valid(); it.Next() {
					var i int
					fmt.Sscanf(string(it.Key()), "key-%d", &i)
					if i <= prev {
						t.Errorf("reader saw out-of-order keys %d after %d", i, prev)
						return
					}
					prev = i
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if err := l.Insert(k, bytes.Repeat([]byte("v"), 32), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSwizzleAfterClone(t *testing.T) {
	space := vaddr.NewSpace()
	src := space.NewRegion(1<<16, nil)
	l, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := fmt.Sprintf("value-%04d", i)
		if err := l.Insert([]byte(k), []byte(v), uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
		golden[k] = v
	}
	// One-piece flush: clone the arena, then swizzle pointers.
	dst := space.Clone(src, nil)
	newHead := Swizzle(dst, src, l.Head())
	flushed := Attach(space, newHead, nil)
	// The flushed copy must contain everything, self-contained in dst.
	for k, v := range golden {
		got, _, _, ok := flushed.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("flushed.Get(%s) = %q ok=%v", k, got, ok)
		}
	}
	if n, err := flushed.CheckInvariants(); err != nil || n != 300 {
		t.Fatalf("flushed invariants: n=%d err=%v", n, err)
	}
	// No pointer in the clone may still reference the source region.
	for n := flushed.First(nil); !n.IsNil(); {
		for i := 0; i < n.Height(); i++ {
			next := n.nextAddr(i)
			if !next.IsNil() && next.Region() == src.Index() {
				t.Fatalf("unswizzled pointer to source region at %v level %d", n.Addr(), i)
			}
		}
		a := n.nextAddr(0)
		if a.IsNil() {
			break
		}
		n = flushed.Node(a)
	}
	// Source can now be released; the clone must stay intact.
	space.Release(src)
	for k, v := range golden {
		got, _, _, ok := flushed.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("after source release, flushed.Get(%s) broken", k)
		}
	}
}

// Property test: a skip list behaves exactly like a sorted map of
// (key → newest value).
func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Key byte
		Val uint16
	}
	f := func(ops []op) bool {
		l := newList(t)
		model := map[string]string{}
		for i, o := range ops {
			k := fmt.Sprintf("k%03d", o.Key)
			v := fmt.Sprintf("v%05d", o.Val)
			if err := l.Insert([]byte(k), []byte(v), uint64(i+1), keys.KindSet); err != nil {
				return false
			}
			model[k] = v
		}
		// Compare Get against the model.
		for k, v := range model {
			got, _, _, ok := l.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		// Compare visible (newest per key) iteration order.
		var wantKeys []string
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		var gotKeys []string
		seen := map[string]bool{}
		it := l.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			k := string(it.Key())
			if !seen[k] {
				seen[k] = true
				gotKeys = append(gotKeys, k)
			}
		}
		if len(gotKeys) != len(wantKeys) {
			return false
		}
		for i := range gotKeys {
			if gotKeys[i] != wantKeys[i] {
				return false
			}
		}
		_, err := l.CheckInvariants()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLargeValuesAcrossChunks(t *testing.T) {
	space := vaddr.NewSpace()
	r := space.NewRegion(1<<18, nil) // 256 KiB chunks
	l, _ := New(r)
	big := bytes.Repeat([]byte("x"), 64<<10) // 64 KiB values
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if err := l.Insert(k, big, uint64(i+1), keys.KindSet); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		v, _, _, ok := l.Get([]byte(fmt.Sprintf("key-%02d", i)))
		if !ok || !bytes.Equal(v, big) {
			t.Fatalf("big value %d corrupted", i)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	l := newList(b)
	k := make([]byte, 16)
	v := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(k, fmt.Sprintf("key-%012d", i))
		if err := l.Insert(k, v, uint64(i+1), keys.KindSet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	l := newList(b)
	const n = 100000
	for i := 0; i < n; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%012d", i)), make([]byte, 100), uint64(i+1), keys.KindSet)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get([]byte(fmt.Sprintf("key-%012d", i%n)))
	}
}

func TestSpliceAPIsMatchSearchBased(t *testing.T) {
	// Drive the splice-based primitives the zero-copy merge uses and
	// verify they behave exactly like their searching counterparts.
	space := vaddr.NewSpace()
	src, _ := New(space.NewRegion(1<<20, nil))
	dst, _ := New(space.NewRegion(1<<20, nil))
	for i := 0; i < 100; i++ {
		src.Insert([]byte(fmt.Sprintf("s-%03d", i)), []byte("v"), uint64(100+i), keys.KindSet)
		dst.Insert([]byte(fmt.Sprintf("d-%03d", i)), []byte("v"), uint64(i+1), keys.KindSet)
	}
	// Move all src nodes into dst via precomputed splices.
	for {
		n := src.First(nil)
		if n.IsNil() {
			break
		}
		var prev [MaxHeight]Node
		next := dst.FindSplice(nil, n.Key(), n.Seq(), &prev)
		if !next.IsNil() && keys.Compare(next.Key(), next.Seq(), n.Key(), n.Seq()) < 0 {
			t.Fatal("FindSplice successor precedes target")
		}
		src.RemoveFirst(nil)
		dst.InsertNodeWithSplice(nil, n, &prev)
	}
	if dst.Count() != 200 {
		t.Fatalf("count = %d", dst.Count())
	}
	if _, err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove half of them via splice-based removal.
	for i := 0; i < 100; i += 2 {
		k := []byte(fmt.Sprintf("s-%03d", i))
		var prev [MaxHeight]Node
		target := dst.FindSplice(nil, k, uint64(100+i), &prev)
		if target.IsNil() || target.Seq() != uint64(100+i) {
			t.Fatalf("FindSplice missed %s", k)
		}
		dst.RemoveWithSplice(nil, target, &prev)
	}
	if dst.Count() != 150 {
		t.Fatalf("count after removals = %d", dst.Count())
	}
	if _, err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, _, _, ok := dst.Get([]byte(fmt.Sprintf("s-%03d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("s-%03d present=%v want=%v", i, ok, want)
		}
	}
}
