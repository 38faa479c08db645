package wal

import (
	"bytes"
	"fmt"
	"testing"

	"miodb/internal/keys"
)

// batchFixtures builds a record stream that exercises alignment padding
// (odd key/value lengths) and chunk-straddle padding (values sized so runs
// cross chunk boundaries at varying offsets).
func batchFixtures(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d-%s", i, bytes.Repeat([]byte("k"), i%13)))
		var v []byte
		kind := keys.KindSet
		switch {
		case i%11 == 0:
			kind = keys.KindDelete
		case i%3 == 0:
			v = bytes.Repeat([]byte{byte(i)}, 900+i%17) // straddles 4 KB chunks
		default:
			v = bytes.Repeat([]byte{byte(i)}, i%97)
		}
		recs = append(recs, Record{Key: k, Value: v, Seq: uint64(i + 1), Kind: kind})
	}
	return recs
}

// TestAppendBatchByteCompatible proves AppendBatch lays out records
// byte-for-byte as repeated Append would: same extent, same content, so a
// WAL written by batch commits replays identically under recovery
// code that has never heard of batches.
func TestAppendBatchByteCompatible(t *testing.T) {
	for _, chunk := range []int{4096, 1 << 16} {
		recs := batchFixtures(300)

		one := New(newDev(), chunk)
		for _, r := range recs {
			if err := one.Append(r.Key, r.Value, r.Seq, r.Kind); err != nil {
				t.Fatal(err)
			}
		}

		// Batch in uneven group sizes, including size-1 groups.
		batched := New(newDev(), chunk)
		for i := 0; i < len(recs); {
			n := 1 + (i*7)%9
			if i+n > len(recs) {
				n = len(recs) - i
			}
			if err := batched.AppendBatch(recs[i : i+n]); err != nil {
				t.Fatal(err)
			}
			i += n
		}

		if one.Count() != batched.Count() || one.Bytes() != batched.Bytes() {
			t.Fatalf("chunk %d: counters diverge: (%d,%d) vs (%d,%d)",
				chunk, one.Count(), one.Bytes(), batched.Count(), batched.Bytes())
		}
		r1, r2 := one.Region(), batched.Region()
		if r1.Size() != r2.Size() {
			t.Fatalf("chunk %d: extent diverges: %d vs %d", chunk, r1.Size(), r2.Size())
		}
		ext := r1.Size()
		for off := int64(0); off < ext; off += int64(chunk) {
			n := int64(chunk)
			if off+n > ext {
				n = ext - off
			}
			b1 := r1.Bytes(r1.Base().Add(off), int(n))
			b2 := r2.Bytes(r2.Base().Add(off), int(n))
			if !bytes.Equal(b1, b2) {
				t.Fatalf("chunk %d: content diverges in [%d,%d)", chunk, off, off+n)
			}
		}

		// And the batched log replays the exact record stream.
		got := replayAll(t, batched)
		if len(got) != len(recs) {
			t.Fatalf("chunk %d: replayed %d records, want %d", chunk, len(got), len(recs))
		}
		for i, r := range recs {
			if !bytes.Equal(got[i].key, r.Key) || !bytes.Equal(got[i].value, r.Value) ||
				got[i].seq != r.Seq || got[i].kind != r.Kind {
				t.Fatalf("chunk %d: record %d mismatch", chunk, i)
			}
		}
	}
}

// TestAppendBatchChargesOneWritePerRun checks the device-model win the
// pipeline claims: a coalesced append performs far fewer metered device
// writes than per-record appends for the same payload.
func TestAppendBatchChargesOneWritePerRun(t *testing.T) {
	recs := batchFixtures(256)

	devOne := newDev()
	one := New(devOne, 1<<16)
	for _, r := range recs {
		if err := one.Append(r.Key, r.Value, r.Seq, r.Kind); err != nil {
			t.Fatal(err)
		}
	}

	devBatch := newDev()
	batched := New(devBatch, 1<<16)
	if err := batched.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}

	w1, w2 := devOne.Counters().Writes, devBatch.Counters().Writes
	if w1 != int64(len(recs)) {
		t.Fatalf("per-record appends issued %d device writes, want %d", w1, len(recs))
	}
	// One write per contiguous run; the whole batch spans few chunks.
	if w2 > 4 {
		t.Fatalf("batched append issued %d device writes, want <= 4", w2)
	}
	// The streaming run covers the 8-byte alignment gaps between records
	// (≤ 7 bytes each) that per-record appends skip; byte traffic may
	// exceed the per-record total by at most that padding.
	b1, b2 := devOne.Counters().BytesWritten, devBatch.Counters().BytesWritten
	if b2 < b1 || b2 > b1+int64(len(recs))*7 {
		t.Fatalf("byte traffic diverges beyond padding: %d vs %d", b1, b2)
	}
}

// TestAppendIsBatchOfOne pins Append as the one-record case of
// AppendBatch: after the same prefix, one record through either leaves
// identical region bytes and identical device writes and bytes written —
// the trailing alignment pad is neither written nor charged.
func TestAppendIsBatchOfOne(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix int // bytes of value in a record appended first
		rec    Record
	}{
		{"padded", 0, Record{Key: []byte("k"), Value: []byte("odd-length"), Seq: 1, Kind: keys.KindSet}},
		{"aligned", 0, Record{Key: []byte("key"), Value: []byte("val1val2"), Seq: 1, Kind: keys.KindSet}},
		{"tombstone", 0, Record{Key: []byte("gone"), Seq: 1, Kind: keys.KindDelete}},
		{"after-prefix", 100, Record{Key: []byte("k"), Value: bytes.Repeat([]byte{'v'}, 37), Seq: 2, Kind: keys.KindSet}},
		{"straddles-chunk", 4000, Record{Key: []byte("k"), Value: bytes.Repeat([]byte{'v'}, 301), Seq: 2, Kind: keys.KindSet}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs := [2]*Log{New(newDev(), 4096), New(newDev(), 4096)}
			for _, l := range logs {
				if tc.prefix > 0 {
					if err := l.Append([]byte("p"), make([]byte, tc.prefix), 1, keys.KindSet); err != nil {
						t.Fatal(err)
					}
				}
			}
			r := tc.rec
			if err := logs[0].Append(r.Key, r.Value, r.Seq, r.Kind); err != nil {
				t.Fatal(err)
			}
			if err := logs[1].AppendBatch([]Record{r}); err != nil {
				t.Fatal(err)
			}
			r1, r2 := logs[0].Region(), logs[1].Region()
			if r1.Size() != r2.Size() {
				t.Fatalf("extent %d vs %d", r1.Size(), r2.Size())
			}
			for off := int64(0); off < r1.Size(); off += 4096 {
				n := min(4096, r1.Size()-off)
				if !bytes.Equal(r1.Bytes(r1.Base().Add(off), int(n)), r2.Bytes(r2.Base().Add(off), int(n))) {
					t.Fatalf("content diverges in [%d,%d)", off, off+n)
				}
			}
			c1, c2 := logs[0].dev.Counters(), logs[1].dev.Counters()
			if c1.Writes != c2.Writes || c1.BytesWritten != c2.BytesWritten {
				t.Fatalf("device charge diverges: %d writes / %d B vs %d writes / %d B",
					c1.Writes, c1.BytesWritten, c2.Writes, c2.BytesWritten)
			}
			want := int64(recordTotal(r.Key, r.Value))
			if tc.prefix > 0 {
				want += int64(recordTotal([]byte("p"), make([]byte, tc.prefix)))
			}
			if c1.BytesWritten != want {
				t.Fatalf("charged %d B, want the framed records' %d B", c1.BytesWritten, want)
			}
		})
	}
}
