package server_test

import (
	"fmt"
	"testing"
	"time"

	"miodb/internal/client"
	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/server"
	"miodb/internal/stats"
)

// TestVersionedOpsPipelined drives the SNAP family and DELRANGE against a
// single engine and a sharded store: snapshot isolation across later
// writes (an MPUT batch that carries a range delete among them), live
// and snapshot multi-get, range deletes bounded and unbounded, and
// release semantics.
func TestVersionedOpsPipelined(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(*testing.T) kvstore.Store
	}{
		{"single-engine", openCore},
		{"shards=4", openShards},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := serve(t, tc.open(t))
			c := dial(t, addr)

			for i := 0; i < 100; i++ {
				if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("old")); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// A batch that overwrites some keys and range-deletes others, in
			// one MPUT round trip.
			if err := c.Batch([]kvstore.BatchOp{
				{Key: []byte("k010"), Value: []byte("new")},
				{Key: []byte("k050"), Value: []byte("k060"), RangeDelete: true},
			}); err != nil {
				t.Fatal(err)
			}

			// The live store sees the batch; the snapshot answers as of
			// capture.
			if v, err := c.Get([]byte("k010")); err != nil || string(v) != "new" {
				t.Fatalf("live Get = %q, %v", v, err)
			}
			if _, err := c.Get([]byte("k055")); err != kvstore.ErrNotFound {
				t.Fatalf("range-deleted Get = %v", err)
			}
			if v, err := snap.Get([]byte("k010")); err != nil || string(v) != "old" {
				t.Fatalf("snap.Get = %q, %v", v, err)
			}

			// Multi-get: positional, ErrNotFound per missing key, and the
			// snapshot variant answers from the cut (consistently across
			// shards).
			values, errs := c.GetMulti([][]byte{[]byte("k010"), []byte("absent"), []byte("k099")})
			if string(values[0]) != "new" || errs[0] != nil || errs[1] != kvstore.ErrNotFound ||
				string(values[2]) != "old" || errs[2] != nil {
				t.Fatalf("live mget = %q %v / %v / %q %v", values[0], errs[0], errs[1], values[2], errs[2])
			}
			values, errs = snap.GetMulti([][]byte{[]byte("k010"), []byte("k055"), []byte("k099")})
			for i, v := range values {
				if errs[i] != nil || string(v) != "old" {
					t.Fatalf("snap mget[%d] = %q, %v", i, v, errs[i])
				}
			}

			// DELRANGE op form removes [k020, k030) from the live view but
			// not from the snapshot.
			if err := c.DeleteRange([]byte("k020"), []byte("k030")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get([]byte("k025")); err != kvstore.ErrNotFound {
				t.Fatalf("live Get after DeleteRange = %v", err)
			}
			if v, err := snap.Get([]byte("k025")); err != nil || string(v) != "old" {
				t.Fatalf("snap.Get after DeleteRange = %q, %v", v, err)
			}

			// Release; further snapshot reads and a second release are
			// refused.
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Get([]byte("k025")); err == nil {
				t.Fatal("Get on released snapshot succeeded")
			}
			if err := snap.Close(); err == nil {
				t.Fatal("double release succeeded")
			}

			// DELRANGE with an unbounded end.
			if err := c.DeleteRange([]byte("k090"), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get([]byte("k099")); err != kvstore.ErrNotFound {
				t.Fatalf("Get after unbounded DeleteRange = %v", err)
			}
		})
	}
}

// TestSnapshotReleasedOnDisconnect pins the leak guard: a client that
// captures a snapshot and drops the connection without releasing it
// must not block store shutdown — the server releases the connection's
// snapshots once its in-flight requests drain.
func TestSnapshotReleasedOnDisconnect(t *testing.T) {
	db, err := core.Open(core.Options{MemTableSize: 16 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(coreStore{db})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.Close() // snapshot deliberately leaked client-side

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// db.Close blocks until every reader pin is released; if the server
	// leaked the snapshot this never returns.
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("db.Close blocked: snapshot leaked by server")
	}
}

// plainStore is a deliberately minimal kvstore.Store: no batches, no
// snapshots, no range deletes, no multi-get.
type plainStore struct{ m map[string]string }

func (p plainStore) Put(key, value []byte) error { p.m[string(key)] = string(value); return nil }
func (p plainStore) Get(key []byte) ([]byte, error) {
	v, ok := p.m[string(key)]
	if !ok {
		return nil, kvstore.ErrNotFound
	}
	return []byte(v), nil
}
func (p plainStore) Delete(key []byte) error { delete(p.m, string(key)); return nil }
func (p plainStore) Scan(start []byte, limit int, fn func(key, value []byte) bool) error {
	return nil
}
func (p plainStore) Flush() error          { return nil }
func (p plainStore) Stats() stats.Snapshot { return stats.Snapshot{} }
func (p plainStore) Close() error          { return nil }

// TestVersionedOpsCapabilityGates: a store without snapshot / range
// delete / multi-get support is refused descriptively, not crashed.
func TestVersionedOpsCapabilityGates(t *testing.T) {
	_, addr := serve(t, plainStore{m: map[string]string{}})
	c := dial(t, addr)

	if _, err := c.Snapshot(); err == nil {
		t.Fatal("Snapshot on plain store succeeded")
	}
	if err := c.DeleteRange([]byte("a"), []byte("z")); err == nil {
		t.Fatal("DeleteRange on plain store succeeded")
	}
	if _, errs := c.GetMulti([][]byte{[]byte("a")}); errs[0] == nil {
		t.Fatal("GetMulti on plain store succeeded")
	}
	// The plain ops still work on the same connection afterwards.
	if err := c.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}
