package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"testing"

	"miodb/internal/kvstore"
)

// TestWireBytesPinned pins the v2 wire format byte for byte: a fixed
// exchange, one request in flight at a time so the order is fixed too,
// must put exactly these bytes on the socket in both directions. The
// hex was captured from the server as it stood before its hot path was
// rebuilt around bursts (ISSUE 18), which was not allowed to move a byte.
func TestWireBytesPinned(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{})
	c := dialV2(t, addr)
	var received bytes.Buffer
	c.br = bufio.NewReader(io.TeeReader(c.nc, &received))
	lim := []byte{10, 0, 0, 0}
	steps := []struct {
		op       byte
		key, val []byte
	}{
		{OpPut, []byte("alpha"), []byte("one")},
		{OpGet, []byte("alpha"), nil},
		{OpMPut, nil, EncodeBatchPayload([]kvstore.BatchOp{
			{Key: []byte("beta"), Value: []byte("two")},
			{Key: []byte("alpha"), Delete: true},
			{Key: []byte("gamma"), Value: []byte("three")},
		})},
		{OpGet, []byte("alpha"), nil},
		{OpScan, []byte("a"), lim},
		{OpPut, nil, []byte("no key")},
		{OpDelete, []byte("beta"), nil},
		{OpScan, []byte("a"), lim},
		{OpScan, []byte("zzz"), lim},
		{OpMPut, nil, EncodeBatchPayload(nil)},
		{OpScan, []byte("a"), nil},
	}
	var sent []byte
	for i, st := range steps {
		frame := AppendTaggedRequest(nil, uint64(0x0102030405060700+i), st.op, st.key, st.val)
		sent = append(sent, frame...)
		if _, err := c.nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.recv(t)
	}
	if got := hex.EncodeToString(sent); got != wantSent {
		t.Errorf("request bytes moved:\n got %s\nwant %s", got, wantSent)
	}
	if got := hex.EncodeToString(received.Bytes()); got != wantReceived {
		t.Errorf("response bytes moved:\n got %s\nwant %s", got, wantReceived)
	}
}

const (
	wantSent = "" +
		"00070605040302010205000000616c706861030000006f6e6501070605040302010105000000616c7068610000000002" +
		"07060504030201060000000035000000030000000004000000626574610300000074776f0105000000616c7068610000" +
		"0000000500000067616d6d6105000000746872656503070605040302010105000000616c706861000000000407060504" +
		"030201040100000061040000000a00000005070605040302010200000000060000006e6f206b65790607060504030201" +
		"030400000062657461000000000707060504030201040100000061040000000a00000008070605040302010403000000" +
		"7a7a7a040000000a0000000907060504030201060000000004000000000000000a070605040302010401000000610000" +
		"0000"
	wantReceived = "" +
		"00070605040302010000000000010706050403020100030000006f6e6502070605040302010000000000030706050403" +
		"020101000000000407060504030201002100000004000000626574610300000074776f0500000067616d6d6105000000" +
		"74687265650507060504030201020e0000007075743a20656d707479206b657906070605040302010000000000070706" +
		"050403020100120000000500000067616d6d610500000074687265650807060504030201000000000009070605040302" +
		"0100000000000a0706050403020102130000007363616e3a206d697373696e67206c696d6974"
)
