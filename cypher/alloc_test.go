package cypher

import (
	"runtime"
	"testing"
)

// pointLookupBytesBound is the allocation gate for an indexed one-row
// point lookup through DB.Exec, in bytes per statement: about 1.4x the
// 4.8 kB measured when the gate was set (go1.24, amd64; 4.9 kB under
// the race detector). That is tight enough to fail on either old
// reservation alone: a full 256-row batch per column for the one row
// (14.5 kB) or a full 256-slot match-cursor buffer (7.1 kB). Before
// both were removed the lookup allocated 16.9 kB.
const pointLookupBytesBound = 6656

// TestPointLookupAllocBound is a deterministic bytes-per-statement
// gate for the hot read path: one indexed point lookup returning one
// row, 1000 times over a 20k-node graph, measured with TotalAlloc. It
// runs serially (Parallelism 1) so the figure does not depend on the
// machine's core count.
func TestPointLookupAllocBound(t *testing.T) {
	db := Open(WithParallelism(1))
	if _, err := db.Exec(`UNWIND range(0, 19999) AS i CREATE (:User{id: i, name: 'u' + toString(i)})`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX ON :User(id)`, nil); err != nil {
		t.Fatal(err)
	}
	const q = `MATCH (u:User{id: $id}) RETURN u.name AS name`
	run := func(i int) {
		res, err := db.Exec(q, map[string]any{"id": i * 7919 % 20000})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("lookup %d: %d rows", i, res.NumRows())
		}
	}
	// Warm the statement and plan caches so the figure is steady state.
	for i := 0; i < 10; i++ {
		run(i)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("point lookup: %d bytes/statement (bound %d)", perOp, pointLookupBytesBound)
	if perOp > pointLookupBytesBound {
		t.Fatalf("point lookup allocates %d bytes/statement, bound %d", perOp, pointLookupBytesBound)
	}
}
