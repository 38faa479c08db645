package skiplist

import (
	"fmt"
	"testing"

	"miodb/internal/keys"
	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// A Node reads its fields through the chunk resolved when the reference
// was made. These tests pin what that must not change: an access the old
// per-field lookups (Region.Bytes, the atomic word accessors) refused is
// still refused — and refused by a panic the caller can recover, under
// -race too, not by checkptr or a stray read of the next allocation.

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// forgeNode writes a node header claiming the given lengths at addr.
func forgeNode(r *vaddr.Region, addr vaddr.Addr, height, keyLen, valLen int) {
	r.PutUint64(addr.Add(metaOff), packMeta(height, keys.KindSet, keyLen, valLen))
	r.PutUint64(addr.Add(seqOff), 1)
}

func TestNodeAccessStaysInsideItsChunk(t *testing.T) {
	const chunk = 4096
	space := vaddr.NewSpace()
	r := space.NewRegion(chunk, nil)
	l, err := New(r)
	if err != nil {
		t.Fatal(err)
	}
	// Commit a second chunk, so that whatever lies past the first one's
	// end is mapped memory an unchecked read would happily return.
	for r.Footprint() < 2*chunk {
		if _, err := r.Alloc(512); err != nil {
			t.Fatal(err)
		}
	}
	end := r.Base().Add(chunk)

	// A node of height 1 in the last 40 bytes of the chunk: header, one
	// tower slot, and room for exactly 16 bytes of key + value.
	at := end.Add(-40)
	forgeNode(r, at, 1, 8, 8)
	n := l.Node(at)
	if len(n.Key()) != 8 || len(n.Value()) != 8 {
		t.Fatalf("node that ends with its chunk: key %d B, value %d B", len(n.Key()), len(n.Value()))
	}
	if got := n.nextAddr(0); !got.IsNil() {
		t.Fatalf("fresh tower slot reads %v", got)
	}
	// An empty value at the very end of the chunk is an empty, in-bounds
	// range.
	forgeNode(r, at, 1, 16, 0)
	if n := l.Node(at); len(n.Key()) != 16 || len(n.Value()) != 0 {
		t.Fatalf("empty value at the chunk's end: key %d B, value %d B", len(n.Key()), len(n.Value()))
	}

	forgeNode(r, at, 1, 17, 0)
	mustPanic(t, "key crossing the chunk's end", func() { l.Node(at).Key() })
	var w Walk
	mustPanic(t, "key crossing the chunk's end, in a search", func() { w.Key(l.Node(at)) })
	forgeNode(r, at, 1, 8, 9)
	mustPanic(t, "value crossing the chunk's end", func() { l.Node(at).Value() })
	forgeNode(r, at, 1, 8, 8)
	mustPanic(t, "tower slot past the chunk's end", func() { l.Node(at).nextAddr(3) })
	mustPanic(t, "tower slot past the chunk's end, in a search", func() { w.next(l.Node(at), 3) })
	mustPanic(t, "tower store past the chunk's end", func() { w.setNext(l.Node(at), 3, vaddr.NilAddr) })

	// A header that does not fit: the meta word is the chunk's last.
	mustPanic(t, "sequence word past the chunk's end", func() { l.Node(end.Add(-8)).Seq() })

	// Misaligned: fields that are plain bytes read, tower words do not.
	odd := l.Node(at.Add(4))
	odd.meta()
	mustPanic(t, "misaligned tower load", func() { odd.nextAddr(0) })
	mustPanic(t, "misaligned tower store", func() { w.setNext(odd, 0, vaddr.NilAddr) })

	// Past the end: of the committed chunks, of a clone's cut last chunk,
	// and of the address space (no such region).
	mustPanic(t, "address past the region's chunks", func() { l.Node(r.Base().Add(1 << 30)).Seq() })
	clone := space.Clone(r, nil)
	cl := Attach(space, vaddr.Rebase(l.Head(), r, clone), nil)
	cl.Node(vaddr.Rebase(at, r, clone))
	src := space.NewRegion(chunk, nil)
	if _, err := src.Alloc(64); err != nil {
		t.Fatal(err)
	}
	cut := space.Clone(src, nil) // one chunk, 64 bytes long
	mustPanic(t, "address past a clone's cut chunk", func() { cl.Node(cut.Base().Add(64)).Seq() })
	mustPanic(t, "dangling region", func() { cl.Node(vaddr.Addr(uint64(1000) << 40)).Seq() })
}

// Node must stay comparable — AdvanceSplice decides whether a level moved
// with prev[level] != cur — and two references to one address made at
// different times must compare equal.
func TestNodeIsComparable(t *testing.T) {
	l := newList(t)
	if err := l.Insert([]byte("k"), []byte("v"), 1, keys.KindSet); err != nil {
		t.Fatal(err)
	}
	a, b := l.First(nil), l.FindGE([]byte("k"))
	if a != b || a == l.headNode() || (Node{}) != l.Node(vaddr.NilAddr) {
		t.Fatalf("node identity: First %v, FindGE %v", a.addr, b.addr)
	}
}

// benchList fills a metered NVM list with n entries of the benchmark's
// shape (16-byte keys, 128-byte values), inserted in a scattered order.
func benchList(b *testing.B, n int) (*List, func(i int) []byte) {
	dev := nvm.NewDevice(vaddr.NewSpace(), nvm.NVMProfile())
	l, err := New(dev.NewRegion(1 << 22))
	if err != nil {
		b.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }
	value := make([]byte, 128)
	for i := 0; i < n; i++ {
		if err := l.Insert(key(i*7919%n), value, uint64(i+1), keys.KindSet); err != nil {
			b.Fatal(err)
		}
	}
	return l, key
}

var benchSink Node

// BenchmarkSeekGE is the search every layer pays — a memtable's (384
// entries at the benchmark's defaults) and the repository's (60 000).
func BenchmarkSeekGE(b *testing.B) {
	for _, n := range []int{384, 60000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l, key := benchList(b, n)
			probes := make([][]byte, 1024)
			for i := range probes {
				probes[i] = key(i * 104729 % n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = l.SeekGE(probes[i%len(probes)], keys.MaxSeq)
			}
		})
	}
}
