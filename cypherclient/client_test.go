package cypherclient

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"repro/cypher"
	"repro/internal/server"
)

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestOneWritePerFrame checks the client sends every frame in one
// Write, and that a result that fits in the run's page costs one frame
// while a longer one adds one PULL frame per further page.
func TestOneWritePerFrame(t *testing.T) {
	srv := server.New(cypher.Open(), server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := &Conn{nc: cc, r: bufio.NewReader(cc)}
	defer c.Close()
	if _, err := c.roundTrip(map[string]any{"type": "hello"}); err != nil {
		t.Fatal(err)
	}
	if cc.writes != 1 {
		t.Fatalf("hello: %d writes, want 1", cc.writes)
	}

	for _, tc := range []struct {
		query  string
		rows   int
		frames int
	}{
		{"RETURN 1 AS x", 1, 1},
		{"UNWIND range(1, 4096) AS x RETURN x", pullBatch, 1},
		{"UNWIND range(1, 4097) AS x RETURN x", pullBatch + 1, 2},
		{"UNWIND range(1, 10000) AS x RETURN x", 10000, 3},
		{"CREATE (:N)", 0, 1},
	} {
		before := cc.writes
		res, err := c.Exec(tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.query, len(res.Rows), tc.rows)
		}
		if got := cc.writes - before; got != tc.frames {
			t.Errorf("%s: %d writes, want %d (one per frame)", tc.query, got, tc.frames)
		}
	}
}
