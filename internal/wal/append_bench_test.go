package wal

import (
	"bytes"
	"testing"

	"miodb/internal/keys"
)

// BenchmarkAppend measures one record (16-byte key, 128-byte value)
// through Append, the single-record commit's WAL step, with the device's
// latency model off, so it is the CPU half only. The log is replaced
// every 4096 records to keep its arena memtable-sized.
//
//	go test ./internal/wal -run '^$' -bench Append -benchmem
func BenchmarkAppend(b *testing.B) {
	key := []byte("key-000000000000")
	val := bytes.Repeat([]byte{'v'}, 128)
	dev := newDev()
	var l *Log
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			if l != nil {
				l.Release()
			}
			l = New(dev, 1<<18)
		}
		if err := l.Append(key, val, uint64(i+1), keys.KindSet); err != nil {
			b.Fatal(err)
		}
	}
}
