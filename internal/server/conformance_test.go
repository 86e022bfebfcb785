package server

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/cypher"
)

// startServer runs a loopback server for db and returns its address.
// The server is drained when the test ends.
func startServer(t *testing.T, db *cypher.DB, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, New(db, opts), ln)
}

// startServerOn serves srv on ln until the test ends.
func startServerOn(t *testing.T, srv *Server, ln net.Listener) (*Server, string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// wireConn is a raw test client speaking frames directly.
type wireConn struct {
	t  *testing.T
	nc net.Conn
}

func dialWire(t *testing.T, addr string) *wireConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	return &wireConn{t: t, nc: nc}
}

func (w *wireConn) send(msg *Message) {
	w.t.Helper()
	if err := WriteFrame(w.nc, msg); err != nil {
		w.t.Fatalf("write frame: %v", err)
	}
}

func (w *wireConn) recv() *Message {
	w.t.Helper()
	msg, err := ReadFrame(w.nc, DefaultMaxFrame)
	if err != nil {
		w.t.Fatalf("read frame: %v", err)
	}
	return msg
}

// expectClosed asserts the server closed the connection.
func (w *wireConn) expectClosed() {
	w.t.Helper()
	if _, err := ReadFrame(w.nc, DefaultMaxFrame); err == nil {
		w.t.Fatal("connection still open; want server-side close")
	}
}

func (w *wireConn) hello() {
	w.t.Helper()
	w.send(&Message{Type: MsgHello})
	if got := w.recv(); got.Type != MsgSuccess {
		w.t.Fatalf("hello reply = %+v", got)
	}
}

// step is one exchange of a conformance script.
type step struct {
	send     *Message
	wantType string
	wantCode string // for failure replies
	check    func(t *testing.T, got *Message)
}

// TestConformanceScripts drives table-driven wire scripts against a
// fresh server each and checks every reply's type (and failure code).
func TestConformanceScripts(t *testing.T) {
	hello := step{send: &Message{Type: MsgHello}, wantType: MsgSuccess,
		check: func(t *testing.T, got *Message) {
			if got.Server != ServerName || got.Dialect != "revised" {
				t.Errorf("hello reply = server %q dialect %q", got.Server, got.Dialect)
			}
		}}
	cases := []struct {
		name       string
		steps      []step
		wantClosed bool // server closes the connection after the last reply
	}{
		{
			name:       "run-before-hello",
			steps:      []step{{send: &Message{Type: MsgRun, Query: "RETURN 1"}, wantType: MsgFailure, wantCode: CodeProtocolError}},
			wantClosed: true,
		},
		{
			name:       "duplicate-hello",
			steps:      []step{hello, {send: &Message{Type: MsgHello}, wantType: MsgFailure, wantCode: CodeProtocolError}},
			wantClosed: true,
		},
		{
			name:       "unknown-message-type",
			steps:      []step{hello, {send: &Message{Type: "discard"}, wantType: MsgFailure, wantCode: CodeProtocolError}},
			wantClosed: true,
		},
		{
			name: "syntax-error-not-fatal",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "MATCH ("}, wantType: MsgFailure, wantCode: CodeSyntaxError},
				{send: &Message{Type: MsgRun, Query: "RETURN 1 AS x"}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Columns) != 1 || got.Columns[0] != "x" {
							t.Errorf("columns = %v", got.Columns)
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Rows) != 1 || got.Rows[0][0].Int == nil || *got.Rows[0][0].Int != 1 {
							t.Errorf("rows = %+v", got.Rows)
						}
						if got.More {
							t.Error("more = true after final pull")
						}
					}},
			},
		},
		{
			name: "pull-without-run",
			steps: []step{
				hello,
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			// A run without n sends no rows: all of them wait for PULL.
			name: "pull-paging",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,5) AS x RETURN x"}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Columns) != 1 || len(got.Rows) != 0 || got.More {
							t.Errorf("columns = %v rows = %d more = %v", got.Columns, len(got.Rows), got.More)
						}
					}},
				{send: &Message{Type: MsgPull, N: 2}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Rows) != 2 || !got.More {
							t.Errorf("rows=%d more=%v", len(got.Rows), got.More)
						}
					}},
				{send: &Message{Type: MsgPull, N: 2}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Rows) != 2 || !got.More {
							t.Errorf("rows=%d more=%v", len(got.Rows), got.More)
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Rows) != 1 || got.More {
							t.Errorf("rows=%d more=%v", len(got.Rows), got.More)
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			name: "reset-mid-transaction",
			steps: []step{
				hello,
				{send: &Message{Type: MsgBegin}, wantType: MsgSuccess},
				{send: &Message{Type: MsgRun, Query: "CREATE (:Tmp)"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgReset}, wantType: MsgSuccess},
				// The transaction rolled back: COMMIT has nothing to commit...
				{send: &Message{Type: MsgCommit}, wantType: MsgFailure, wantCode: CodeTransactionState},
				// ...and the create is gone.
				{send: &Message{Type: MsgRun, Query: "MATCH (n:Tmp) RETURN count(n) AS c"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgPull}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if got.Rows[0][0].Int == nil || *got.Rows[0][0].Int != 0 {
							t.Errorf("count after reset = %+v", got.Rows[0][0])
						}
					}},
			},
		},
		{
			name: "txn-control-as-run-text",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "BEGIN"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgRun, Query: "CREATE (:T2)"}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if got.Stats == nil || got.Stats.NodesCreated != 1 {
							t.Errorf("stats = %+v", got.Stats)
						}
					}},
				{send: &Message{Type: MsgRun, Query: "ROLLBACK"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgCommit}, wantType: MsgFailure, wantCode: CodeTransactionState},
			},
		},
		{
			name: "commit-without-begin",
			steps: []step{
				hello,
				{send: &Message{Type: MsgCommit}, wantType: MsgFailure, wantCode: CodeTransactionState},
				{send: &Message{Type: MsgRollback}, wantType: MsgFailure, wantCode: CodeTransactionState},
				{send: &Message{Type: MsgBegin}, wantType: MsgSuccess},
				{send: &Message{Type: MsgBegin}, wantType: MsgFailure, wantCode: CodeTransactionState},
				{send: &Message{Type: MsgCommit}, wantType: MsgSuccess},
			},
		},
		{
			name: "execution-error-not-fatal",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "RETURN 1/0 AS x"}, wantType: MsgFailure, wantCode: CodeExecutionError},
				{send: &Message{Type: MsgRun, Query: "RETURN 2 AS x"}, wantType: MsgSuccess},
			},
		},
		{
			name: "explain-mode",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "MATCH (n) RETURN n", Mode: "explain"}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if got.Plan == "" {
							t.Error("explain returned empty plan")
						}
						if len(got.Columns) != 0 {
							t.Errorf("explain returned columns %v", got.Columns)
						}
					}},
				// Explain buffers no result.
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			name: "profile-mode",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND [1,2] AS x RETURN x", Mode: "profile"}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if got.Plan == "" {
							t.Error("profile returned empty plan")
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Rows) != 2 {
							t.Errorf("profile rows = %d", len(got.Rows))
						}
					}},
			},
		},
		{
			name: "params-round-trip",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "RETURN $x AS x, $s AS s",
					Params: map[string]WireValue{
						"x": mustEncode(t, listOf(intWire(7), floatSpecialWire("nan"))),
						"s": strWire("héllo"),
					}}, wantType: MsgSuccess},
				{send: &Message{Type: MsgPull}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						row := got.Rows[0]
						if !row[0].IsList || len(row[0].List) != 2 {
							t.Fatalf("x = %+v", row[0])
						}
						if row[0].List[0].Int == nil || *row[0].List[0].Int != 7 {
							t.Errorf("x[0] = %+v", row[0].List[0])
						}
						if row[0].List[1].FloatS != "nan" {
							t.Errorf("x[1] = %+v", row[0].List[1])
						}
						if row[1].Str == nil || *row[1].Str != "héllo" {
							t.Errorf("s = %+v", row[1])
						}
					}},
			},
		},
		{
			name: "bad-parameter",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "RETURN $x",
					Params: map[string]WireValue{"x": {FloatS: "bogus"}}}, wantType: MsgFailure, wantCode: CodeInvalidParameter},
			},
		},
		{
			// Every RUN drops the previous result's unsent rows, also
			// when it fails before executing or is transaction control.
			name: "run-drops-previous-result",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,5) AS i RETURN i"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgRun, Query: "MATCH (n RETURN n"}, wantType: MsgFailure, wantCode: CodeSyntaxError},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,5) AS i RETURN i"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgRun, Query: "RETURN $x",
					Params: map[string]WireValue{"x": {FloatS: "bogus"}}}, wantType: MsgFailure, wantCode: CodeInvalidParameter},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,5) AS i RETURN i"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgRun, Query: "BEGIN"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,5) AS i RETURN i"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgRun, Query: "ROLLBACK"}, wantType: MsgSuccess},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			name: "run-n-returns-first-page-inline",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,3) AS x RETURN x", N: 10}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if len(got.Columns) != 1 || got.Columns[0] != "x" || got.Stats == nil {
							t.Errorf("columns = %v stats = %v", got.Columns, got.Stats)
						}
						wantInts(t, got.Rows, 1, 2, 3)
						if got.More {
							t.Error("more = true for a result that fits in n")
						}
					}},
				// The whole result went out with the run: nothing to pull.
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			name: "run-n-pages-the-rest",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,5) AS x RETURN x", N: 2}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						wantInts(t, got.Rows, 1, 2)
						if !got.More {
							t.Error("more = false with rows left")
						}
					}},
				{send: &Message{Type: MsgPull, N: 2}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						wantInts(t, got.Rows, 3, 4)
						if !got.More {
							t.Error("more = false with rows left")
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						wantInts(t, got.Rows, 5)
						if got.More {
							t.Error("more = true after the last row")
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			name: "run-n-explain-has-no-rows",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND range(1,3) AS x RETURN x", Mode: "explain", N: 10}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if got.Plan == "" || len(got.Columns) != 0 || len(got.Rows) != 0 || got.More {
							t.Errorf("explain reply = %+v", got)
						}
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			name: "run-n-profile-returns-plan-and-rows",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "UNWIND [1,2] AS x RETURN x", Mode: "profile", N: 10}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) {
						if got.Plan == "" {
							t.Error("profile returned empty plan")
						}
						wantInts(t, got.Rows, 1, 2)
					}},
				{send: &Message{Type: MsgPull}, wantType: MsgFailure, wantCode: CodeNoPendingResult},
			},
		},
		{
			// A failing run with n gets one failure frame: the next reply
			// answers the next request.
			name: "run-n-failure-is-one-frame",
			steps: []step{
				hello,
				{send: &Message{Type: MsgRun, Query: "RETURN 1/0 AS x", N: 10}, wantType: MsgFailure, wantCode: CodeExecutionError},
				{send: &Message{Type: MsgRun, Query: "MATCH (", N: 10}, wantType: MsgFailure, wantCode: CodeSyntaxError},
				{send: &Message{Type: MsgRun, Query: "RETURN 2 AS x", N: 10}, wantType: MsgSuccess,
					check: func(t *testing.T, got *Message) { wantInts(t, got.Rows, 2) }},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := cypher.Open()
			_, addr := startServer(t, db, Options{})
			w := dialWire(t, addr)
			for i, st := range tc.steps {
				w.send(st.send)
				got := w.recv()
				if got.Type != st.wantType {
					t.Fatalf("step %d (%s): reply type %q (code=%q msg=%q), want %q",
						i, st.send.Type, got.Type, got.Code, got.Error, st.wantType)
				}
				if st.wantCode != "" && got.Code != st.wantCode {
					t.Fatalf("step %d (%s): failure code %q (%s), want %q", i, st.send.Type, got.Code, got.Error, st.wantCode)
				}
				if st.check != nil {
					st.check(t, got)
				}
			}
			if tc.wantClosed {
				w.expectClosed()
			}
		})
	}
}

// TestConformanceGoodbye checks GOODBYE closes without a reply.
func TestConformanceGoodbye(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{})
	w := dialWire(t, addr)
	w.hello()
	w.send(&Message{Type: MsgGoodbye})
	w.expectClosed()
}

// TestConformanceOversizedFrame checks the server rejects a frame
// whose declared length exceeds its maximum, with a failure frame
// before closing.
func TestConformanceOversizedFrame(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{MaxFrame: 1024})
	w := dialWire(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10<<20)
	if _, err := w.nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	got := w.recv()
	if got.Type != MsgFailure || got.Code != CodeFrameTooLarge {
		t.Fatalf("reply = %+v, want FrameTooLarge failure", got)
	}
	w.expectClosed()
}

// TestConformanceMalformedFrame checks invalid JSON bodies produce a
// ProtocolError failure and a close.
func TestConformanceMalformedFrame(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{})
	w := dialWire(t, addr)
	body := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.nc.Write(body); err != nil {
		t.Fatal(err)
	}
	got := w.recv()
	if got.Type != MsgFailure || got.Code != CodeProtocolError {
		t.Fatalf("reply = %+v, want ProtocolError failure", got)
	}
	w.expectClosed()
}

// TestConformanceDrainRefusesRun checks that a draining server refuses
// new statements with ServerDraining.
func TestConformanceDrainRefusesRun(t *testing.T) {
	db := cypher.Open()
	srv := New(db, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	w := dialWire(t, ln.Addr().String())
	w.hello()

	// Shutdown in the background; the open connection keeps it waiting.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Wait until the server reports draining.
	for !srv.Stats().Draining {
		time.Sleep(time.Millisecond)
	}
	// The drain kick closes parked connections; either our RUN gets a
	// ServerDraining failure (it raced in before the close) or the
	// connection is already gone — both are clean drain outcomes.
	if err := WriteFrame(w.nc, &Message{Type: MsgRun, Query: "CREATE (:N)"}); err == nil {
		if reply, err := ReadFrame(w.nc, DefaultMaxFrame); err == nil {
			if reply.Type != MsgFailure || reply.Code != CodeServerDraining {
				t.Fatalf("reply = %+v, want ServerDraining failure", reply)
			}
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Nothing committed during drain.
	if n := db.NumNodes(); n != 0 {
		t.Fatalf("%d nodes committed during drain", n)
	}
}

// TestConformanceIdleTimeout checks idle connections are closed.
func TestConformanceIdleTimeout(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{IdleTimeout: 50 * time.Millisecond})
	w := dialWire(t, addr)
	w.hello()
	deadline := time.Now().Add(10 * time.Second)
	w.nc.SetReadDeadline(deadline)
	if _, err := ReadFrame(w.nc, DefaultMaxFrame); err == nil || !time.Now().Before(deadline) {
		t.Fatal("idle connection was not closed by the server")
	}
}

// TestConformanceStatementTimeout checks a long statement gets a
// StatementTimeout failure and the connection is torn down.
func TestConformanceStatementTimeout(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{StatementTimeout: 30 * time.Millisecond})
	w := dialWire(t, addr)
	w.hello()
	w.send(&Message{Type: MsgRun, Query: "UNWIND range(1,4000000) AS x WITH x WHERE x % 7 = 0 RETURN count(x) AS c"})
	got := w.recv()
	if got.Type != MsgFailure || got.Code != CodeStatementTimeout {
		t.Fatalf("reply = %+v, want StatementTimeout failure", got)
	}
	w.expectClosed()
}

// TestConformanceServerBusy checks writer-admission backpressure: with
// a queue bound of 1, a second concurrent writer is refused.
func TestConformanceServerBusy(t *testing.T) {
	db := cypher.Open()
	_, addr := startServer(t, db, Options{MaxWriteQueue: 1})
	w1 := dialWire(t, addr)
	w1.hello()
	w2 := dialWire(t, addr)
	w2.hello()

	// w1 claims the only slot with an explicit transaction.
	w1.send(&Message{Type: MsgBegin})
	if got := w1.recv(); got.Type != MsgSuccess {
		t.Fatalf("begin: %+v", got)
	}
	// w2's write (and BEGIN) bounce with ServerBusy.
	w2.send(&Message{Type: MsgRun, Query: "CREATE (:B)"})
	if got := w2.recv(); got.Type != MsgFailure || got.Code != CodeServerBusy {
		t.Fatalf("busy write reply = %+v", got)
	}
	w2.send(&Message{Type: MsgBegin})
	if got := w2.recv(); got.Type != MsgFailure || got.Code != CodeServerBusy {
		t.Fatalf("busy begin reply = %+v", got)
	}
	// Reads stay admissible under write backpressure.
	w2.send(&Message{Type: MsgRun, Query: "RETURN 1 AS x"})
	if got := w2.recv(); got.Type != MsgSuccess {
		t.Fatalf("read under backpressure: %+v", got)
	}
	// Releasing the slot readmits writers.
	w1.send(&Message{Type: MsgRollback})
	if got := w1.recv(); got.Type != MsgSuccess {
		t.Fatalf("rollback: %+v", got)
	}
	w2.send(&Message{Type: MsgRun, Query: "CREATE (:B)"})
	if got := w2.recv(); got.Type != MsgSuccess {
		t.Fatalf("write after release: %+v", got)
	}
}

// wantInts checks a page of one-column integer rows.
func wantInts(t *testing.T, rows [][]WireValue, want ...int64) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if len(rows[i]) != 1 || rows[i][0].Int == nil || *rows[i][0].Int != w {
			t.Fatalf("row %d = %+v, want %d", i, rows[i], w)
		}
	}
}

// Helpers building WireValues for test tables.

func intWire(i int64) WireValue           { return WireValue{Int: &i} }
func strWire(s string) WireValue          { return WireValue{Str: &s} }
func floatSpecialWire(s string) WireValue { return WireValue{FloatS: s} }
func listOf(els ...WireValue) WireValue   { return WireValue{IsList: true, List: els} }
func mustEncode(t *testing.T, w WireValue) WireValue {
	t.Helper()
	// Round-trip through the codec to catch asymmetries early.
	v, err := DecodeValue(w)
	if err != nil {
		t.Fatal(err)
	}
	out, err := EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
