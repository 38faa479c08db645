package server

import (
	"bytes"
	"testing"

	"miodb/internal/kvstore"
)

func TestBatchPayloadRoundTrip(t *testing.T) {
	in := []kvstore.BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("del"), Delete: true},
		{Key: []byte("big"), Value: bytes.Repeat([]byte("v"), 4096)},
		{Key: []byte("empty"), Value: nil},
	}
	out, err := DecodeBatchPayload(EncodeBatchPayload(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d ops", len(out))
	}
	for i := range in {
		if !bytes.Equal(in[i].Key, out[i].Key) || !bytes.Equal(in[i].Value, out[i].Value) || in[i].Delete != out[i].Delete {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, in[i], out[i])
		}
	}
	for _, bad := range [][]byte{{1}, {1, 0, 0, 0}, {1, 0, 0, 0, 0, 5, 0, 0, 0}} {
		if _, err := DecodeBatchPayload(bad); err == nil {
			t.Errorf("truncated batch payload %v accepted", bad)
		}
	}
}

func TestScanPayloadRoundTrip(t *testing.T) {
	in := [][2][]byte{
		{[]byte("a"), []byte("1")},
		{[]byte(""), []byte("")},
		{[]byte("key"), bytes.Repeat([]byte("v"), 1000)},
	}
	out, err := DecodeScanPayload(EncodeScanPayload(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d pairs", len(out))
	}
	for i := range in {
		if !bytes.Equal(in[i][0], out[i][0]) || !bytes.Equal(in[i][1], out[i][1]) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	if _, err := DecodeScanPayload([]byte{1, 2}); err == nil {
		t.Error("truncated payload accepted")
	}
}
