package core

import (
	"testing"

	"repro/internal/graph"
)

// TestLegacyDanglingDeleteAtStatementBoundary pins the statement-boundary
// invariant on all three entry points that enforce it: Engine.
// ExecuteStatement, a session's auto-commit and a statement inside an
// explicit transaction. A legacy DELETE that leaves a relationship
// dangling fails with the lowest dangling relationship id, source before
// target, and leaves the graph byte-identical (inside a transaction: the
// transaction stays open with its earlier statements). A statement that
// deletes a node unchecked and then its relationships passes through the
// illegal intermediate state of Section 4.2 and succeeds.
func TestLegacyDanglingDeleteAtStatementBoundary(t *testing.T) {
	// Nodes a=1, b=2, c=3 (by id); relationships 1: a->b, 2: a->c, 3: c->b.
	const setup = `CREATE (a:U{id:1}), (b:U{id:2}), (c:U{id:3}),
		(a)-[:R]->(b), (a)-[:R]->(c), (c)-[:S]->(b)`
	failing := []struct{ query, want string }{
		{`MATCH (u:U{id:1}) DELETE u`,
			"statement left the graph inconsistent: graph: relationship 1 has dangling source 1"},
		{`MATCH (u:U{id:2}) DELETE u`,
			"statement left the graph inconsistent: graph: relationship 1 has dangling target 2"},
		{`MATCH (u:U{id:3}) DELETE u`,
			"statement left the graph inconsistent: graph: relationship 2 has dangling target 3"},
		{`MATCH (u:U) WHERE u.id >= 2 DELETE u`,
			"statement left the graph inconsistent: graph: relationship 1 has dangling target 2"},
		// The transit is legal only if it ends repaired: deleting one of
		// c's two relationships still strands the other.
		{`MATCH (u:U{id:3})-[r:S]->() DELETE u, r`,
			"statement left the graph inconsistent: graph: relationship 2 has dangling target 3"},
	}

	type path struct {
		name string
		// open returns the statement runner and a copy of the graph the
		// next statement would run on.
		open func(t *testing.T) (exec func(q string) (*Result, error), view func() *graph.Graph, s *Session)
	}
	paths := []path{
		{"engine", func(t *testing.T) (func(string) (*Result, error), func() *graph.Graph, *Session) {
			g := graph.New()
			return func(q string) (*Result, error) { return runErr(DialectCypher9, g, q) },
				func() *graph.Graph { return g.Clone() }, nil
		}},
		{"auto-commit", func(t *testing.T) (func(string) (*Result, error), func() *graph.Graph, *Session) {
			s, store := newTestSession(t, DialectCypher9)
			return func(q string) (*Result, error) { return sessTry(s, q) },
				func() *graph.Graph {
					snap := store.Acquire()
					defer snap.Release()
					return snap.Graph().Clone()
				}, nil
		}},
		{"explicit-txn", func(t *testing.T) (func(string) (*Result, error), func() *graph.Graph, *Session) {
			s, _ := newTestSession(t, DialectCypher9)
			sessExec(t, s, `BEGIN`)
			return func(q string) (*Result, error) { return sessTry(s, q) },
				func() *graph.Graph { return s.txn.w.Graph().Clone() }, s
		}},
	}

	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			exec, view, txn := p.open(t)
			if _, err := exec(setup); err != nil {
				t.Fatal(err)
			}
			for _, c := range failing {
				before := view()
				_, err := exec(c.query)
				if err == nil || err.Error() != c.want {
					t.Fatalf("%s:\n got %v\nwant %s", c.query, err, c.want)
				}
				if err := graph.Identical(view(), before); err != nil {
					t.Fatalf("%s: failed statement changed the graph: %v", c.query, err)
				}
				if txn != nil && !txn.InTransaction() {
					t.Fatalf("%s: failed statement closed the transaction", c.query)
				}
			}

			res, err := exec(`MATCH (u:U{id:3})-[r]-() DELETE u, r`)
			if err != nil {
				t.Fatalf("delete-then-repair statement: %v", err)
			}
			if res.Stats.NodesDeleted != 1 || res.Stats.RelsDeleted != 2 {
				t.Fatalf("delete-then-repair stats: %+v", res.Stats)
			}
			g := view()
			if err := g.Validate(); err != nil || g.NumNodes() != 2 || g.NumRels() != 1 {
				t.Fatalf("after delete-then-repair: %d nodes, %d rels, Validate %v", g.NumNodes(), g.NumRels(), err)
			}

			if txn != nil {
				// The earlier statements survived the failures: the
				// transaction commits the setup and the repair.
				sessExec(t, txn, `COMMIT`)
				if n := countNodes(t, txn, "U"); n != 2 {
					t.Fatalf("committed :U count = %d, want 2", n)
				}
			}
		})
	}
}
