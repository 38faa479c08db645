package server

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"miodb/internal/kvstore"
)

// split wraps data so that every socket read yields one byte: the worst
// case of frames split across reads, which the buffered readers on both
// ends must put back together.
func split(data []byte) *bufio.Reader {
	return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data)))
}

// FuzzTaggedRequest feeds arbitrary bytes to the v2 request decoder: it
// must never panic, and whatever it accepts must re-encode to the bytes
// it consumed (the codec is canonical).
func FuzzTaggedRequest(f *testing.F) {
	f.Add(AppendTaggedRequest(nil, 1, OpPut, []byte("key"), []byte("val")))
	f.Add(AppendTaggedRequest(nil, 0xFFFFFFFFFFFFFFFF, OpGet, []byte("k"), nil))
	f.Add(AppendTaggedRequest(nil, 42, OpMPut, nil,
		EncodeBatchPayload([]kvstore.BatchOp{{Key: []byte("a"), Value: []byte("b")}})))
	// Truncated frames and malformed tags.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		req, err := readTaggedRequest(br)
		if sreq, serr := readTaggedRequest(split(data)); (err == nil) != (serr == nil) ||
			sreq.tag != req.tag || sreq.op != req.op ||
			!bytes.Equal(sreq.key, req.key) || !bytes.Equal(sreq.val, req.val) {
			t.Fatalf("split decode disagrees: %+v, %v vs %+v, %v", sreq, serr, req, err)
		}
		if err != nil {
			return
		}
		if !validOp(req.op) {
			t.Fatalf("decoder accepted invalid op %d", req.op)
		}
		re := AppendTaggedRequest(nil, req.tag, req.op, req.key, req.val)
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data)
		}
		if len(data) > 4096 {
			return // more than one fill of the default read buffer
		}
		// Decoding stopped at the frame's last byte, and the burst check
		// agrees that the frame was all there before it.
		if got := len(data) - br.Buffered(); got != len(re) {
			t.Fatalf("decoder consumed %d bytes of a %d-byte frame", got, len(re))
		}
		primed := bufio.NewReader(bytes.NewReader(data))
		primed.Peek(1)
		if !taggedRequestBuffered(primed) {
			t.Fatalf("a decodable frame of %d bytes is not reported as buffered", len(re))
		}
	})
}

// FuzzTaggedResponse does the same for the response side of the framing.
func FuzzTaggedResponse(f *testing.F) {
	f.Add(appendTaggedResponse(nil, 7, StatusOK, []byte("payload")))
	f.Add(appendTaggedResponse(nil, 0, StatusNotFound, nil))
	f.Add(appendTaggedResponse(nil, 1<<63, StatusError, bytes.Repeat([]byte("e"), 100)))
	f.Add([]byte{9})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tag, status, payload, err := ReadTaggedResponse(r)
		// The client decodes through a buffered reader; a stream cut at
		// every byte must give the same answer as the direct decode.
		if stag, sstatus, spayload, serr := ReadTaggedResponse(split(data)); (err == nil) != (serr == nil) ||
			stag != tag || sstatus != status || !bytes.Equal(spayload, payload) {
			t.Fatalf("split decode disagrees: %d/%d/%x, %v vs %d/%d/%x, %v",
				stag, sstatus, spayload, serr, tag, status, payload, err)
		}
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		re := appendTaggedResponse(nil, tag, status, payload)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:consumed])
		}
	})
}

// FuzzBatchPayload hammers the MPUT payload decoder with arbitrary
// bytes: no panics, and accepted payloads survive a round trip.
func FuzzBatchPayload(f *testing.F) {
	f.Add(EncodeBatchPayload([]kvstore.BatchOp{
		{Key: []byte("k"), Value: []byte("v")},
		{Key: []byte("d"), Delete: true},
	}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 0, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := DecodeBatchPayload(data)
		if err != nil {
			return
		}
		re := EncodeBatchPayload(ops)
		ops2, err := DecodeBatchPayload(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if len(ops2) != len(ops) {
			t.Fatalf("round trip changed op count: %d vs %d", len(ops2), len(ops))
		}
		for i := range ops {
			if !bytes.Equal(ops[i].Key, ops2[i].Key) ||
				!bytes.Equal(ops[i].Value, ops2[i].Value) ||
				ops[i].Delete != ops2[i].Delete {
				t.Fatalf("op %d changed across round trip", i)
			}
		}
	})
}

// FuzzScanPayload does the same for the scan result codec.
func FuzzScanPayload(f *testing.F) {
	f.Add(EncodeScanPayload([][2][]byte{{[]byte("k"), []byte("v")}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs, err := DecodeScanPayload(data)
		if err != nil {
			return
		}
		re := EncodeScanPayload(pairs)
		pairs2, err := DecodeScanPayload(re)
		if err != nil || len(pairs2) != len(pairs) {
			t.Fatalf("round trip: %d pairs, %v", len(pairs2), err)
		}
	})
}

// TestTaggedRequestTruncations table-drives the malformed-stream cases
// the fuzzer seeds cover, so they are exercised in every plain test run.
func TestTaggedRequestTruncations(t *testing.T) {
	good := AppendTaggedRequest(nil, 3, OpPut, []byte("key"), []byte("value"))
	whole := func(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }
	primed := func(b []byte) *bufio.Reader { // everything already in the buffer
		br := whole(b)
		br.Peek(1)
		return br
	}
	if !taggedRequestBuffered(primed(good)) {
		t.Error("whole frame not reported as buffered")
	}
	for _, rd := range []func([]byte) *bufio.Reader{whole, split} {
		for cut := 0; cut < len(good); cut++ {
			if _, err := readTaggedRequest(rd(good[:cut])); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
			if taggedRequestBuffered(primed(good[:cut])) {
				t.Errorf("truncation at %d reported as a whole buffered frame", cut)
			}
		}
		req, err := readTaggedRequest(rd(good))
		if err != nil || req.tag != 3 || req.op != OpPut || string(req.key) != "key" || string(req.val) != "value" {
			t.Errorf("whole frame: %+v, %v", req, err)
		}
		// Unknown op after a valid tag.
		bad := append([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 0x77)
		bad = append(bad, make([]byte, 8)...)
		if _, err := readTaggedRequest(rd(bad)); err == nil {
			t.Error("unknown op accepted")
		}
		// Oversized frame length.
		huge := append([]byte{1, 0, 0, 0, 0, 0, 0, 0}, OpPut)
		huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF)
		if _, err := readTaggedRequest(rd(huge)); err == nil {
			t.Error("oversized key frame accepted")
		}
		if taggedRequestBuffered(primed(append(huge, make([]byte, 64)...))) {
			t.Error("oversized key frame reported as buffered")
		}
	}
	// A key longer than the read buffer cannot share its value's buffer;
	// it must still decode, whole or split.
	long := AppendTaggedRequest(nil, 4, OpPut, bytes.Repeat([]byte("k"), 5000), []byte("value"))
	for _, br := range []*bufio.Reader{whole(long), split(long)} {
		req, err := readTaggedRequest(br)
		if err != nil || len(req.key) != 5000 || string(req.val) != "value" {
			t.Errorf("long key: %d-byte key, %q, %v", len(req.key), req.val, err)
		}
	}
	// EOF mid-payload on the response side.
	resp := appendTaggedResponse(nil, 9, StatusOK, []byte("0123456789"))
	if _, _, _, err := ReadTaggedResponse(bytes.NewReader(resp[:len(resp)-3])); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-payload truncation: %v", err)
	}
	if _, _, _, err := ReadTaggedResponse(split(resp[:len(resp)-3])); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-payload truncation, split: %v", err)
	}
}
