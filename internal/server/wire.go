// Package server implements cypherd's network layer: a TCP server
// speaking a length-prefixed JSON wire protocol where each connection
// maps onto one cypher.Session. The protocol is deliberately small —
// eight client message types, two server message types — and carries
// the full value system (including NaN/±Inf floats and node/rel/path
// entities) with explicit type tags, so remote results are
// bit-identical to embedded execution.
//
// # Framing
//
// Every message is one frame: a 4-byte big-endian unsigned length N
// followed by N bytes of JSON encoding a single message object. N must
// be at least 2 ("{}") and at most the server's configured maximum
// (Options.MaxFrame, default 16 MiB); violations are protocol errors
// that close the connection after a failure frame.
//
// # Messages
//
// Client to server (the "type" field selects):
//
//	hello                                  — must be first; negotiates
//	run    {query, params, mode, n}        — execute; mode "" | "explain" | "profile"
//	pull   {n}                             — fetch up to n buffered rows (n<=0: all)
//	begin / commit / rollback              — explicit transaction control
//	reset                                  — discard pending rows, roll back any open txn
//	goodbye                                — close the connection
//
// Server to client:
//
//	success {server?, dialect?, columns?, rows?, more?, stats?, plan?}
//	failure {code, message}
//
// RUN executes the statement to completion and buffers the result
// rows server-side. A run with n > 0 gets the first n rows back in its
// own success, next to the columns and stats, with more set when rows
// remain; a run without n gets columns and stats only. PULL pages the
// remaining buffered rows either way, so a result that fits in n rows
// costs one round trip. Any RUN first discards the rows still buffered
// from the previous one, whether or not it succeeds. Failure frames
// carry a machine-readable code (see the Code* constants); protocol
// violations are fatal (the server closes the connection after the
// failure frame), statement-level errors are not.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/value"
)

// Message types (the "type" field of a frame's JSON object).
const (
	// MsgHello must be the first message on a connection.
	MsgHello = "hello"
	// MsgRun executes a statement.
	MsgRun = "run"
	// MsgPull fetches buffered result rows of the last run.
	MsgPull = "pull"
	// MsgBegin opens an explicit transaction.
	MsgBegin = "begin"
	// MsgCommit publishes the open transaction.
	MsgCommit = "commit"
	// MsgRollback discards the open transaction.
	MsgRollback = "rollback"
	// MsgReset discards pending rows and rolls back any open transaction.
	MsgReset = "reset"
	// MsgGoodbye closes the connection (no reply).
	MsgGoodbye = "goodbye"
	// MsgSuccess is the server's positive reply.
	MsgSuccess = "success"
	// MsgFailure is the server's negative reply.
	MsgFailure = "failure"
)

// Failure codes carried by failure frames.
const (
	// CodeProtocolError marks a protocol-state violation (RUN before
	// HELLO, double HELLO, unknown message type, malformed frame). Fatal:
	// the server closes the connection after the failure frame.
	CodeProtocolError = "ProtocolError"
	// CodeFrameTooLarge rejects a frame whose declared length exceeds
	// the server's maximum. Fatal.
	CodeFrameTooLarge = "FrameTooLarge"
	// CodeSyntaxError marks a statement that failed to parse or
	// validate. Not fatal.
	CodeSyntaxError = "SyntaxError"
	// CodeExecutionError marks a statement that failed at runtime. The
	// statement rolled back; the connection (and any open transaction)
	// stays usable.
	CodeExecutionError = "ExecutionError"
	// CodeTransactionState marks invalid transaction control (COMMIT
	// without BEGIN, nested BEGIN). Not fatal.
	CodeTransactionState = "TransactionState"
	// CodeNoPendingResult marks a PULL with no buffered result. Not fatal.
	CodeNoPendingResult = "NoPendingResult"
	// CodeServerBusy rejects a write when the bounded writer-admission
	// queue is full. Not fatal; the client may retry.
	CodeServerBusy = "ServerBusy"
	// CodeServerDraining rejects new statements while the server shuts
	// down gracefully. Not fatal, but the connection will close soon.
	CodeServerDraining = "ServerDraining"
	// CodeStatementTimeout reports a statement that exceeded the
	// per-statement timeout. Fatal: the engine cannot abandon a running
	// statement mid-flight, so the server tears the connection down once
	// the statement completes server-side.
	CodeStatementTimeout = "StatementTimeout"
	// CodeInvalidParameter marks a RUN whose params failed to decode.
	CodeInvalidParameter = "InvalidParameter"
)

// Message is the wire message object; one struct covers both
// directions (unused fields stay empty and are omitted from JSON).
type Message struct {
	// Type is the message type (one of the Msg* constants).
	Type string `json:"type"`

	// Query is the statement text of a run message.
	Query string `json:"query,omitempty"`
	// Params are the statement parameters of a run message.
	Params map[string]WireValue `json:"params,omitempty"`
	// Mode selects run behaviour: "" executes, "explain" plans without
	// executing, "profile" executes and returns the annotated plan.
	Mode string `json:"mode,omitempty"`
	// N is the maximum number of rows a pull fetches (n <= 0 fetches
	// all remaining rows). On a run, n > 0 asks for up to n rows inline
	// in the run's success; n <= 0 leaves every row to pull.
	N int `json:"n,omitempty"`

	// Server identifies the server software in a hello reply.
	Server string `json:"server,omitempty"`
	// Dialect is the database's update dialect in a hello reply.
	Dialect string `json:"dialect,omitempty"`
	// Columns are the result column names in a run success.
	Columns []string `json:"columns,omitempty"`
	// Rows are result records in a pull success, or in a run success
	// when the run set n.
	Rows [][]WireValue `json:"rows,omitempty"`
	// More reports, in a pull or paged run success, whether rows
	// remain buffered for pull.
	More bool `json:"more,omitempty"`
	// Stats carries update counters in a run/commit success.
	Stats *WireStats `json:"stats,omitempty"`
	// Plan is the rendered operator plan of an explain/profile success.
	Plan string `json:"plan,omitempty"`

	// Code is the machine-readable failure code of a failure message.
	Code string `json:"code,omitempty"`
	// Error is the human-readable failure message.
	Error string `json:"message,omitempty"`
}

// WireStats mirrors cypher.UpdateStats on the wire.
type WireStats struct {
	// NodesCreated counts nodes created.
	NodesCreated int `json:"nodesCreated,omitempty"`
	// NodesDeleted counts nodes deleted.
	NodesDeleted int `json:"nodesDeleted,omitempty"`
	// RelsCreated counts relationships created.
	RelsCreated int `json:"relsCreated,omitempty"`
	// RelsDeleted counts relationships deleted.
	RelsDeleted int `json:"relsDeleted,omitempty"`
	// PropsSet counts properties set or removed.
	PropsSet int `json:"propsSet,omitempty"`
	// LabelsAdded counts labels added.
	LabelsAdded int `json:"labelsAdded,omitempty"`
	// LabelsRemoved counts labels removed.
	LabelsRemoved int `json:"labelsRemoved,omitempty"`
}

// WireValue is the tagged JSON encoding of a Cypher value. Exactly one
// tag is set; explicit tags make integers, floats (including NaN and
// the infinities, via floatSpecial) and entity references round-trip
// bit-identically — a bare JSON number would not.
type WireValue struct {
	// Null marks the null value.
	Null bool `json:"null,omitempty"`
	// Bool carries a boolean.
	Bool *bool `json:"bool,omitempty"`
	// Int carries a 64-bit integer.
	Int *int64 `json:"int,omitempty"`
	// Float carries a finite 64-bit float.
	Float *float64 `json:"float,omitempty"`
	// FloatS carries a non-finite float: "nan", "+inf" or "-inf".
	FloatS string `json:"floatSpecial,omitempty"`
	// Str carries a string.
	Str *string `json:"string,omitempty"`
	// List carries list elements when IsList is set.
	List []WireValue `json:"list,omitempty"`
	// IsList marks a (possibly empty) list.
	IsList bool `json:"isList,omitempty"`
	// Map carries map entries when IsMap is set.
	Map map[string]WireValue `json:"map,omitempty"`
	// IsMap marks a (possibly empty) map.
	IsMap bool `json:"isMap,omitempty"`
	// Node carries a node reference by id.
	Node *int64 `json:"node,omitempty"`
	// Rel carries a relationship reference by id.
	Rel *int64 `json:"rel,omitempty"`
	// Path carries a path as alternating node/relationship ids.
	Path *WirePath `json:"path,omitempty"`
}

// WirePath is the wire encoding of a path value.
type WirePath struct {
	// Nodes are the path's node ids (len(Nodes) == len(Rels)+1).
	Nodes []int64 `json:"nodes"`
	// Rels are the path's relationship ids.
	Rels []int64 `json:"rels"`
}

// EncodeValue converts a runtime value to its wire encoding.
func EncodeValue(v value.Value) (WireValue, error) {
	switch x := v.(type) {
	case nil, value.Null:
		return WireValue{Null: true}, nil
	case value.Bool:
		b := bool(x)
		return WireValue{Bool: &b}, nil
	case value.Int:
		i := int64(x)
		return WireValue{Int: &i}, nil
	case value.Float:
		f := float64(x)
		switch {
		case math.IsNaN(f):
			return WireValue{FloatS: "nan"}, nil
		case math.IsInf(f, 1):
			return WireValue{FloatS: "+inf"}, nil
		case math.IsInf(f, -1):
			return WireValue{FloatS: "-inf"}, nil
		}
		return WireValue{Float: &f}, nil
	case value.String:
		s := string(x)
		return WireValue{Str: &s}, nil
	case value.List:
		out := WireValue{IsList: true, List: make([]WireValue, len(x))}
		for i, el := range x {
			ev, err := EncodeValue(el)
			if err != nil {
				return WireValue{}, err
			}
			out.List[i] = ev
		}
		return out, nil
	case value.Map:
		out := WireValue{IsMap: true, Map: make(map[string]WireValue, len(x))}
		for k, el := range x {
			ev, err := EncodeValue(el)
			if err != nil {
				return WireValue{}, err
			}
			out.Map[k] = ev
		}
		return out, nil
	case value.Node:
		id := x.ID
		return WireValue{Node: &id}, nil
	case value.Rel:
		id := x.ID
		return WireValue{Rel: &id}, nil
	case value.Path:
		p := &WirePath{Nodes: append([]int64(nil), x.Nodes...), Rels: append([]int64(nil), x.Rels...)}
		if p.Rels == nil {
			p.Rels = []int64{}
		}
		return WireValue{Path: p}, nil
	default:
		return WireValue{}, fmt.Errorf("server: cannot encode %s value", v.Kind())
	}
}

// DecodeValue converts a wire encoding back to a runtime value.
func DecodeValue(w WireValue) (value.Value, error) {
	switch {
	case w.Null:
		return value.NullValue, nil
	case w.Bool != nil:
		return value.Bool(*w.Bool), nil
	case w.Int != nil:
		return value.Int(*w.Int), nil
	case w.Float != nil:
		return value.Float(*w.Float), nil
	case w.FloatS != "":
		switch w.FloatS {
		case "nan":
			return value.Float(math.NaN()), nil
		case "+inf":
			return value.Float(math.Inf(1)), nil
		case "-inf":
			return value.Float(math.Inf(-1)), nil
		}
		return nil, fmt.Errorf("server: unknown float special %q", w.FloatS)
	case w.Str != nil:
		return value.String(*w.Str), nil
	case w.IsList:
		out := make(value.List, len(w.List))
		for i, el := range w.List {
			v, err := DecodeValue(el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case w.IsMap:
		out := make(value.Map, len(w.Map))
		for k, el := range w.Map {
			v, err := DecodeValue(el)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case w.Node != nil:
		return value.Node{ID: *w.Node}, nil
	case w.Rel != nil:
		return value.Rel{ID: *w.Rel}, nil
	case w.Path != nil:
		if len(w.Path.Nodes) != len(w.Path.Rels)+1 {
			return nil, fmt.Errorf("server: malformed path (%d nodes, %d rels)", len(w.Path.Nodes), len(w.Path.Rels))
		}
		return value.Path{
			Nodes: append([]int64(nil), w.Path.Nodes...),
			Rels:  append([]int64(nil), w.Path.Rels...),
		}, nil
	default:
		return nil, errors.New("server: malformed wire value (no tag set)")
	}
}

// DefaultMaxFrame is the default maximum frame body size.
const DefaultMaxFrame = 16 << 20

// minFrame is the smallest well-formed frame body ("{}").
const minFrame = 2

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// configured maximum. The reader returns it wrapped with the length.
var ErrFrameTooLarge = errors.New("frame exceeds maximum size")

// ErrMalformedFrame reports a frame whose body is not a valid message
// object (bad JSON, empty body, or missing type).
var ErrMalformedFrame = errors.New("malformed frame")

// ReadFrame reads one length-prefixed message from r. maxFrame bounds
// the accepted body size (<= 0 means DefaultMaxFrame). A clean EOF
// before the first length byte returns io.EOF; a truncated frame
// returns io.ErrUnexpectedEOF; an oversized declared length returns an
// error wrapping ErrFrameTooLarge without consuming the body; invalid
// JSON returns an error wrapping ErrMalformedFrame.
func ReadFrame(r io.Reader, maxFrame int) (*Message, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.ReadFull already maps a partial header to ErrUnexpectedEOF;
		// other errors (timeouts, resets) pass through for the caller to
		// classify.
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if n < minFrame {
		return nil, fmt.Errorf("%w: body length %d", ErrMalformedFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var msg Message
	if err := json.Unmarshal(body, &msg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	if msg.Type == "" {
		return nil, fmt.Errorf("%w: missing message type", ErrMalformedFrame)
	}
	return &msg, nil
}

// WriteFrame writes one length-prefixed message to w in a single
// Write call, so each frame costs one syscall on a network connection.
func WriteFrame(w io.Writer, msg *Message) error {
	var buf bytes.Buffer
	return writeFrame(w, &buf, msg)
}

// writeFrame encodes msg behind its length prefix into buf (reset
// first) and writes header and body together. The body is exactly
// json.Marshal's output: Encoder marshals the same way and its trailing
// newline is cut before the length is filled in.
func writeFrame(w io.Writer, buf *bytes.Buffer, msg *Message) error {
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if err := json.NewEncoder(buf).Encode(msg); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1)
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}
