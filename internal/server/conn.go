package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/cypher"
)

// conn is one accepted connection: a wire-protocol state machine
// wrapped around one cypher.Session. All frame writes happen on the
// serve goroutine; statements execute on a helper goroutine so the
// serve loop can enforce the statement timeout.
type conn struct {
	srv  *Server
	id   int64
	nc   net.Conn
	sess *cypher.Session

	helloed   bool
	writeSlot bool // holds a writer-admission slot across an explicit txn
	pending   *pendingResult
	wbuf      bytes.Buffer // frame encoding buffer, reused across replies
}

// pendingResult holds a run's rows not yet sent; next is the first.
type pendingResult struct {
	res  *cypher.Result
	next int
}

// maxKeptWriteBuf caps the encoding buffer a connection keeps between
// replies, so one large result does not pin its frame's memory.
const maxKeptWriteBuf = 64 << 10

// serve runs the connection until it closes or errors. Frames are read
// through one buffered reader, so a small frame costs one read syscall
// and pipelined frames are served from the buffer. The deadlines act on
// the socket reads beneath it: the idle timeout fires only when no
// complete frame is buffered, and a drain kick is seen at the draining
// check at the top of the loop even when one is.
func (c *conn) serve() {
	defer c.cleanup()
	br := bufio.NewReader(c.nc)
	for {
		if c.srv.isDraining() {
			return
		}
		if t := c.srv.opts.IdleTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		msg, err := ReadFrame(br, c.srv.opts.MaxFrame)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				// Client went away cleanly.
			case errors.Is(err, ErrFrameTooLarge):
				c.send(failure(CodeFrameTooLarge, err.Error()))
			case isTimeout(err):
				// Idle timeout or drain kick: close silently.
			default:
				c.send(failure(CodeProtocolError, err.Error()))
			}
			return
		}
		if !c.dispatch(msg) {
			return
		}
	}
}

// dispatch handles one message; false means close the connection.
func (c *conn) dispatch(msg *Message) bool {
	if !c.helloed && msg.Type != MsgHello {
		c.send(failure(CodeProtocolError, fmt.Sprintf("%s before hello", msg.Type)))
		return false
	}
	switch msg.Type {
	case MsgHello:
		if c.helloed {
			c.send(failure(CodeProtocolError, "duplicate hello"))
			return false
		}
		c.helloed = true
		return c.send(&Message{Type: MsgSuccess, Server: ServerName, Dialect: c.srv.db.Dialect().String()})
	case MsgRun:
		return c.handleRun(msg)
	case MsgPull:
		return c.handlePull(msg)
	case MsgBegin:
		return c.handleBegin()
	case MsgCommit:
		return c.handleCommit()
	case MsgRollback:
		return c.handleRollback()
	case MsgReset:
		return c.handleReset()
	case MsgGoodbye:
		return false
	default:
		c.send(failure(CodeProtocolError, fmt.Sprintf("unknown message type %q", msg.Type)))
		return false
	}
}

// handleRun classifies, schedules and executes one statement. The
// previous statement's unsent rows are dropped first, so no failure
// below can leave them pullable.
func (c *conn) handleRun(msg *Message) bool {
	c.pending = nil
	if c.srv.isDraining() {
		return c.send(failure(CodeServerDraining, "server is shutting down"))
	}
	info, err := c.srv.db.ClassifyStatement(msg.Query)
	if err != nil {
		return c.send(failure(CodeSyntaxError, err.Error()))
	}
	switch info.TxnControl {
	case "BEGIN":
		return c.handleBegin()
	case "COMMIT":
		return c.handleCommit()
	case "ROLLBACK":
		return c.handleRollback()
	}
	params, err := decodeParams(msg.Params)
	if err != nil {
		return c.send(failure(CodeInvalidParameter, err.Error()))
	}

	// Backpressure: an updating auto-commit statement claims a
	// writer-admission slot for its duration. Inside an explicit
	// transaction the slot acquired at BEGIN already covers it.
	needSlot := info.Updating && !c.writeSlot && msg.Mode != "explain"
	if needSlot && !c.srv.acquireWriteSlot() {
		return c.send(failure(CodeServerBusy, "write queue full"))
	}

	type outcome struct {
		res  *cypher.Result
		plan string
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		switch msg.Mode {
		case "explain":
			o.plan, o.err = c.sess.Explain(msg.Query)
		case "profile":
			o.res, o.plan, o.err = c.sess.Profile(msg.Query, params)
		default:
			o.res, o.err = c.sess.Exec(msg.Query, params)
		}
		done <- o
	}()

	var o outcome
	timedOut := false
	if t := c.srv.opts.StatementTimeout; t > 0 {
		timer := time.NewTimer(t)
		select {
		case o = <-done:
			timer.Stop()
		case <-timer.C:
			timedOut = true
			c.send(failure(CodeStatementTimeout, fmt.Sprintf("statement exceeded %v", t)))
			// The engine cannot abandon a running statement; wait it out
			// so the session is quiescent before teardown, then close.
			o = <-done
		}
	} else {
		o = <-done
	}
	if needSlot {
		c.srv.releaseWriteSlot()
	}
	if timedOut {
		return false
	}
	if o.err != nil {
		return c.send(failure(CodeExecutionError, o.err.Error()))
	}
	reply := &Message{Type: MsgSuccess, Plan: o.plan}
	if o.res != nil {
		reply.Columns = o.res.Columns()
		reply.Stats = statsToWire(o.res.Stats())
		c.pending = &pendingResult{res: o.res}
		if msg.N > 0 {
			// Encoding a value cannot fail for engine results; if it
			// did, the connection closes as on a failed pull.
			if reply.Rows, reply.More, err = c.page(msg.N); err != nil {
				c.send(failure(CodeExecutionError, err.Error()))
				return false
			}
		}
	}
	return c.send(reply)
}

// handlePull pages buffered rows to the client.
func (c *conn) handlePull(msg *Message) bool {
	if c.pending == nil {
		return c.send(failure(CodeNoPendingResult, "no statement result to pull"))
	}
	rows, more, err := c.page(msg.N)
	if err != nil {
		c.send(failure(CodeExecutionError, err.Error()))
		return false
	}
	return c.send(&Message{Type: MsgSuccess, Rows: rows, More: more})
}

// page encodes up to n of the pending rows (n <= 0: all of them) and
// reports whether more remain; the result is dropped once it is fully
// sent.
func (c *conn) page(n int) ([][]WireValue, bool, error) {
	pr := c.pending
	remaining := pr.res.NumRows() - pr.next
	if n <= 0 || n > remaining {
		n = remaining
	}
	out := make([][]WireValue, n)
	for i := range out {
		row := pr.res.Values(pr.next + i)
		wrow := make([]WireValue, len(row))
		for j, v := range row {
			wv, err := EncodeValue(v)
			if err != nil {
				return nil, false, err
			}
			wrow[j] = wv
		}
		out[i] = wrow
	}
	pr.next += n
	more := pr.next < pr.res.NumRows()
	if !more {
		c.pending = nil
	}
	return out, more, nil
}

// handleBegin opens an explicit transaction, claiming a writer slot.
func (c *conn) handleBegin() bool {
	if c.srv.isDraining() {
		return c.send(failure(CodeServerDraining, "server is shutting down"))
	}
	if c.sess.InTransaction() {
		return c.send(failure(CodeTransactionState, "transaction already open"))
	}
	if !c.writeSlot && !c.srv.acquireWriteSlot() {
		return c.send(failure(CodeServerBusy, "write queue full"))
	}
	c.writeSlot = true
	if err := c.sess.Begin(); err != nil {
		c.dropWriteSlot()
		return c.send(failure(CodeTransactionState, err.Error()))
	}
	return c.send(&Message{Type: MsgSuccess})
}

// handleCommit publishes the open transaction and frees the slot.
func (c *conn) handleCommit() bool {
	stats, err := c.sess.Commit()
	c.dropWriteSlot()
	if err != nil {
		return c.send(failure(CodeTransactionState, err.Error()))
	}
	return c.send(&Message{Type: MsgSuccess, Stats: statsToWire(stats)})
}

// handleRollback discards the open transaction and frees the slot.
func (c *conn) handleRollback() bool {
	err := c.sess.Rollback()
	c.dropWriteSlot()
	if err != nil {
		return c.send(failure(CodeTransactionState, err.Error()))
	}
	return c.send(&Message{Type: MsgSuccess})
}

// handleReset returns the connection to a clean ready state: pending
// rows are discarded and any open transaction rolls back.
func (c *conn) handleReset() bool {
	c.pending = nil
	if c.sess.InTransaction() {
		c.sess.Rollback()
	}
	c.dropWriteSlot()
	return c.send(&Message{Type: MsgSuccess})
}

// dropWriteSlot releases the explicit-transaction writer slot, if held.
func (c *conn) dropWriteSlot() {
	if c.writeSlot {
		c.writeSlot = false
		c.srv.releaseWriteSlot()
	}
}

// cleanup rolls back any open transaction, frees the writer slot and
// unregisters the connection.
func (c *conn) cleanup() {
	c.sess.Close()
	c.dropWriteSlot()
	c.srv.remove(c)
	c.nc.Close()
}

// send writes one frame; false means the connection is broken.
func (c *conn) send(msg *Message) bool {
	err := writeFrame(c.nc, &c.wbuf, msg)
	if c.wbuf.Cap() > maxKeptWriteBuf {
		c.wbuf = bytes.Buffer{}
	}
	return err == nil
}

// failure builds a failure message.
func failure(code, text string) *Message {
	return &Message{Type: MsgFailure, Code: code, Error: text}
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// decodeParams converts wire parameters for cypher.Session.Exec.
func decodeParams(in map[string]WireValue) (map[string]any, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[string]any, len(in))
	for k, wv := range in {
		v, err := DecodeValue(wv)
		if err != nil {
			return nil, fmt.Errorf("parameter $%s: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// statsToWire converts update statistics for the wire.
func statsToWire(s cypher.UpdateStats) *WireStats {
	return &WireStats{
		NodesCreated:  s.NodesCreated,
		NodesDeleted:  s.NodesDeleted,
		RelsCreated:   s.RelsCreated,
		RelsDeleted:   s.RelsDeleted,
		PropsSet:      s.PropsSet,
		LabelsAdded:   s.LabelsAdded,
		LabelsRemoved: s.LabelsRemoved,
	}
}
