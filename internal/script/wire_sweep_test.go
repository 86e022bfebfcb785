package script

import (
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/server"
	"repro/internal/value"
)

// TestCorpusWireEquivalence replays every script in scripts/ twice —
// through an embedded cypher.Session and through a loopback cypherd
// server via the cypherclient wire protocol — in both dialects, and
// requires per-statement results to be bit-identical (columns, row
// values compared by exact bits, update stats) and the final graphs to
// serialize to identical snapshot bytes. This is the acceptance gate
// for the wire codec: everything the engine can produce must survive
// the protocol unchanged.
func TestCorpusWireEquivalence(t *testing.T) {
	manifest := map[string]cypher.Dialect{
		"paper_walkthrough.cypher": cypher.Cypher9,
		"social.cypher":            cypher.Revised,
		"inventory.cypher":         cypher.Revised,
		"expressions.cypher":       cypher.Revised,
	}
	dir := filepath.Join("..", "..", "scripts")
	for name, dialect := range manifest {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			embDB := cypher.Open(cypher.WithDialect(dialect))
			sess := embDB.Session()
			defer sess.Close()

			remDB := cypher.Open(cypher.WithDialect(dialect))
			srv := server.New(remDB, server.Options{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				if err := <-done; err != nil {
					t.Errorf("serve: %v", err)
				}
			}()
			client, err := cypherclient.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			for i, stmt := range Split(string(src)) {
				embRes, embErr := sess.Exec(stmt, nil)
				remRes, remErr := client.Exec(stmt, nil)
				if (embErr == nil) != (remErr == nil) {
					t.Fatalf("statement %d (%q): embedded err %v, remote err %v", i+1, stmt, embErr, remErr)
				}
				if embErr != nil {
					continue
				}
				compareResults(t, i+1, stmt, embRes, remRes)
			}

			// The final graphs serialize to identical bytes (Save is
			// deterministic: sorted ids, sorted JSON keys).
			var embSnap, remSnap bytes.Buffer
			if err := embDB.Save(&embSnap); err != nil {
				t.Fatal(err)
			}
			if err := remDB.Save(&remSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(embSnap.Bytes(), remSnap.Bytes()) {
				t.Errorf("final graph snapshots differ (%d vs %d bytes)", embSnap.Len(), remSnap.Len())
			}
		})
	}
}

// compareResults requires a remote result to be bit-identical to the
// embedded one.
func compareResults(t *testing.T, stmtNo int, stmt string, emb *cypher.Result, rem *cypherclient.Result) {
	t.Helper()
	embCols := emb.Columns()
	if len(embCols) != len(rem.Columns) {
		t.Fatalf("statement %d (%q): %d columns embedded vs %d remote", stmtNo, stmt, len(embCols), len(rem.Columns))
	}
	for i := range embCols {
		if embCols[i] != rem.Columns[i] {
			t.Fatalf("statement %d: column %d is %q embedded vs %q remote", stmtNo, i, embCols[i], rem.Columns[i])
		}
	}
	if emb.NumRows() != len(rem.Rows) {
		t.Fatalf("statement %d (%q): %d rows embedded vs %d remote", stmtNo, stmt, emb.NumRows(), len(rem.Rows))
	}
	for i := 0; i < emb.NumRows(); i++ {
		embRow := emb.Values(i)
		for j := range embRow {
			if !bitIdentical(embRow[j], rem.Rows[i][j]) {
				t.Fatalf("statement %d (%q): row %d col %d: embedded %s vs remote %s",
					stmtNo, stmt, i, j, embRow[j], rem.Rows[i][j])
			}
		}
	}
	es, rs := emb.Stats(), rem.Stats
	if es.NodesCreated != rs.NodesCreated || es.NodesDeleted != rs.NodesDeleted ||
		es.RelsCreated != rs.RelsCreated || es.RelsDeleted != rs.RelsDeleted ||
		es.PropsSet != rs.PropsSet || es.LabelsAdded != rs.LabelsAdded ||
		es.LabelsRemoved != rs.LabelsRemoved {
		t.Fatalf("statement %d (%q): stats %+v embedded vs %+v remote", stmtNo, stmt, es, rs)
	}
}

// bitIdentical compares two values exactly: floats by their bit
// pattern (so NaN equals NaN and -0.0 differs from 0.0 — stricter than
// Cypher equivalence, which is the point of a codec test), entities by
// id, containers recursively.
func bitIdentical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case value.Null:
		return true
	case value.Bool:
		return x == b.(value.Bool)
	case value.Int:
		return x == b.(value.Int)
	case value.Float:
		fa, fb := float64(x), float64(b.(value.Float))
		if math.IsNaN(fa) || math.IsNaN(fb) {
			// The wire canonicalizes NaN payloads (floatSpecial "nan"),
			// as does the persistence codec; any-NaN equals any-NaN.
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return math.Float64bits(fa) == math.Float64bits(fb)
	case value.String:
		return x == b.(value.String)
	case value.List:
		y := b.(value.List)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !bitIdentical(x[i], y[i]) {
				return false
			}
		}
		return true
	case value.Map:
		y := b.(value.Map)
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !bitIdentical(v, w) {
				return false
			}
		}
		return true
	case value.Node:
		return x.ID == b.(value.Node).ID
	case value.Rel:
		return x.ID == b.(value.Rel).ID
	case value.Path:
		y := b.(value.Path)
		if len(x.Nodes) != len(y.Nodes) || len(x.Rels) != len(y.Rels) {
			return false
		}
		for i := range x.Nodes {
			if x.Nodes[i] != y.Nodes[i] {
				return false
			}
		}
		for i := range x.Rels {
			if x.Rels[i] != y.Rels[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// TestWireValueExtremes pushes the wire through the value system's
// hard cases — NaN, the infinities, -0.0, min/max int64, unicode,
// nested containers with nulls, entities and paths — and requires
// bit-identical round-trips.
func TestWireValueExtremes(t *testing.T) {
	db := cypher.Open()
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()
	client, err := cypherclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sess := db.Session()
	defer sess.Close()

	if _, err := client.Exec(`CREATE (:E{id:1})-[:R{w:1.5}]->(:E{id:2})`, nil); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`RETURN 0.0/0.0 AS nan, 1.0/0.0 AS pinf, -1.0/0.0 AS ninf`,
		`RETURN -0.0 AS negzero, 9223372036854775807 AS maxint, -9223372036854775807 - 1 AS minint`,
		`RETURN 'héllo wörld 👋' AS s, [1, null, [2.5, 'x']] AS nested, {a: null, b: [true]} AS m`,
		`MATCH (a:E{id:1})-[r:R]->(b:E{id:2}) RETURN a, r, b`,
		`MATCH p = (a:E{id:1})-[:R]->(:E) RETURN p`,
		// More rows than the client's page (4096 inline with the run),
		// so continuation PULLs must reassemble the result exactly.
		`UNWIND range(1, 10000) AS i RETURN i, toFloat(i) / 3.0 AS f, CASE WHEN i % 97 = 0 THEN null ELSE 'r' + toString(i) END AS s`,
	}
	for _, q := range queries {
		embRes, embErr := sess.Exec(q, nil)
		remRes, remErr := client.Exec(q, nil)
		if embErr != nil || remErr != nil {
			t.Fatalf("%s: embedded err %v, remote err %v", q, embErr, remErr)
		}
		compareResults(t, 0, q, embRes, remRes)
	}
	// Parameters round-trip the same extremes client -> server.
	params := map[string]any{
		"nan":  math.NaN(),
		"inf":  math.Inf(-1),
		"list": []any{int64(-9223372036854775808), "x", nil},
	}
	embRes, embErr := sess.Exec(`RETURN $nan AS a, $inf AS b, $list AS c`, params)
	remRes, remErr := client.Exec(`RETURN $nan AS a, $inf AS b, $list AS c`, params)
	if embErr != nil || remErr != nil {
		t.Fatalf("params: embedded err %v, remote err %v", embErr, remErr)
	}
	compareResults(t, 0, "params", embRes, remRes)
}
