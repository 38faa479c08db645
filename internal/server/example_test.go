package server_test

import (
	"fmt"

	"miodb/internal/client"
	"miodb/internal/core"
	"miodb/internal/server"
)

type store struct{ *core.DB }

func (s store) Flush() error { return s.DB.FlushAll() }

// Example demonstrates serving a MioDB store over TCP and talking to it
// with its client.
func Example() {
	db, err := core.Open(core.Options{})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	srv := server.New(store{db})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	c, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	c.Put([]byte("sensor/42"), []byte("21.5C"))
	v, _ := c.Get([]byte("sensor/42"))
	fmt.Println(string(v))

	pairs, _ := c.Scan([]byte("sensor/"), 10)
	fmt.Println(len(pairs), "pairs")
	// Output:
	// 21.5C
	// 1 pairs
}
