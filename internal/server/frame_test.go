package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"

	"repro/cypher"
)

// countingWriter counts Write calls.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFrameOneWrite checks WriteFrame issues exactly one Write per
// frame and that the frame is the length prefix followed by exactly
// json.Marshal's bytes.
func TestWriteFrameOneWrite(t *testing.T) {
	msgs := []*Message{
		{Type: MsgHello},
		{Type: MsgRun, Query: "RETURN $x AS x, '<&>' AS html", N: 4096,
			Params: map[string]WireValue{"x": intWire(-7)}},
		{Type: MsgSuccess, Columns: []string{"x"}, Rows: [][]WireValue{{intWire(1)}, {strWire("é")}}, More: true},
		failure(CodeSyntaxError, "bad"),
	}
	for _, msg := range msgs {
		var w countingWriter
		if err := WriteFrame(&w, msg); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d writes, want 1", msg.Type, w.writes)
		}
		body, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		want = append(want, body...)
		if !bytes.Equal(w.buf.Bytes(), want) {
			t.Errorf("%s: frame\n%q\nwant\n%q", msg.Type, w.buf.Bytes(), want)
		}
	}
}

// countingListener wraps accepted connections to count their Writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: nc, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServerOneWritePerReply checks the server sends each reply frame
// in a single Write on the connection, for small and multi-page
// results alike.
func TestServerOneWritePerReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	_, addr := startServerOn(t, New(cypher.Open(), Options{}), countingListener{Listener: ln, writes: &writes})
	w := dialWire(t, addr)
	replies := 0
	for _, msg := range []*Message{
		{Type: MsgHello},
		{Type: MsgRun, Query: "RETURN 1 AS x", N: 10},
		{Type: MsgRun, Query: "UNWIND range(1, 20000) AS x RETURN x, toString(x) AS s", N: 5000},
		{Type: MsgPull, N: 5000},
		{Type: MsgPull},
		{Type: MsgRun, Query: "MATCH (", N: 10},
	} {
		w.send(msg)
		w.recv()
		replies++
	}
	if got := writes.Load(); got != int64(replies) {
		t.Fatalf("server issued %d writes for %d reply frames", got, replies)
	}
}

// TestPipelinedFramesAnsweredInOrder sends several frames in one TCP
// write: the buffered reader must serve each of them, in order.
func TestPipelinedFramesAnsweredInOrder(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{})
	w := dialWire(t, addr)
	var batch bytes.Buffer
	for _, msg := range []*Message{
		{Type: MsgHello},
		{Type: MsgRun, Query: "RETURN 1 AS x", N: 10},
		{Type: MsgRun, Query: "UNWIND range(2, 4) AS x RETURN x"},
		{Type: MsgPull, N: 2},
		{Type: MsgPull},
	} {
		if err := WriteFrame(&batch, msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.nc.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := w.recv(); got.Type != MsgSuccess || got.Server != ServerName {
		t.Fatalf("hello reply = %+v", got)
	}
	if got := w.recv(); got.Type != MsgSuccess {
		t.Fatalf("run reply = %+v", got)
	} else {
		wantInts(t, got.Rows, 1)
	}
	if got := w.recv(); got.Type != MsgSuccess || len(got.Rows) != 0 {
		t.Fatalf("run without n reply = %+v", got)
	}
	if got := w.recv(); got.Type != MsgSuccess || !got.More {
		t.Fatalf("first pull reply = %+v", got)
	} else {
		wantInts(t, got.Rows, 2, 3)
	}
	if got := w.recv(); got.Type != MsgSuccess || got.More {
		t.Fatalf("second pull reply = %+v", got)
	} else {
		wantInts(t, got.Rows, 4)
	}
}
