// Benchmark harness for the reproduction. The paper itself reports no
// performance numbers (it is a semantics paper); these benchmarks answer
// the systems question its design leaves open — what the revised,
// atomic/deterministic semantics costs relative to the legacy pipeline —
// and exercise every strategy of Section 6 at scale. EXPERIMENTS.md
// records a captured run; the B-ids below are indexed in DESIGN.md.
//
//	B1  bulk import (Example 5 at scale): legacy MERGE vs MERGE ALL vs MERGE SAME
//	B2  all five Section 6 strategies on the same import
//	B3  SET: legacy immediate writes vs revised two-phase change sets
//	B4  DELETE: legacy unchecked vs revised strict (collect+check+null)
//	B5  pattern matching (Query 1 shape) on marketplace graphs
//	B6  CREATE throughput
//	B7  isomorphism checking (the determinism-verification primitive)
//	B8  relationship-isomorphic vs homomorphic matching
//	B9  collapse strategies on the Example 7 clickstream shape
//	B10 LIMIT early exit under the streaming executor
//	B11 cost-based anchor selection on a label-skewed graph
//	B12 WHERE pushdown pruning relationship expansion
//	B13 concurrent snapshot readers vs lock-serialized execution
//	B14 property-index seeks: equality-anchored MATCH and bulk MERGE
//	B15 commit latency under pinned readers: copy-on-write vs deep clone
//	B16 vectorized batch execution vs row-at-a-time streaming
//	B17 spilling barriers under a memory budget vs unlimited in-memory
//	B18 durable commit latency: WAL off / no-sync / grouped fsync / fsync-per-commit
//	B19 morsel-parallel read scaling: worker degrees 1/2/4/8 on scan- and match-heavy pipelines
//	B20 served QPS: N concurrent wire clients vs one, shared plan cache across sessions
//	B21 expression-heavy pipelines: plan-time constant folding and purity-aware pushdown
//	B22 end-to-end write latency through DB.Exec at 1k/10k/100k relationships
//	B23 one served statement's wire round trip: point lookup and a 100-row read
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/workload"
)

func execBench(b *testing.B, cfg core.Config, g *graph.Graph, src string, t0 *table.Table) *core.Result {
	b.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.NewEngine(cfg).ExecuteWithTable(g, stmt, nil, t0)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

const importQueryLegacy = `MERGE (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`
const importQueryAll = `MERGE ALL (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`
const importQuerySame = `MERGE SAME (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`

// B1: bulk import under the three surface forms.
func BenchmarkB1BulkImport(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		tbl := workload.DefaultOrderImport(rows).Build()
		cases := []struct {
			name  string
			cfg   core.Config
			query string
		}{
			{"legacy-merge", core.Config{Dialect: core.DialectCypher9}, importQueryLegacy},
			{"merge-all", core.Config{Dialect: core.DialectRevised}, importQueryAll},
			{"merge-same", core.Config{Dialect: core.DialectRevised}, importQuerySame},
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/rows=%d", c.name, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g := graph.New()
					execBench(b, c.cfg, g, c.query, tbl.Clone())
				}
			})
		}
	}
}

// B2: the five Section 6 strategies on the same import table.
func BenchmarkB2MergeStrategies(b *testing.B) {
	tbl := workload.DefaultOrderImport(1000).Build()
	for _, s := range []core.MergeStrategy{
		core.StrategyAtomic, core.StrategyGrouping, core.StrategyWeakCollapse,
		core.StrategyCollapse, core.StrategyStrongCollapse,
	} {
		cfg := core.Config{Dialect: core.DialectRevised, MergeStrategy: s}
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graph.New()
				execBench(b, cfg, g, importQueryAll, tbl.Clone())
			}
		})
	}
}

// B3: SET over every product — legacy immediate vs revised two-phase.
func BenchmarkB3Set(b *testing.B) {
	base := workload.DefaultMarketplace().Build()
	query := `MATCH (p:Product) SET p.flag = true, p.score = p.id * 2`
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"legacy", core.Config{Dialect: core.DialectCypher9}},
		{"revised-atomic", core.Config{Dialect: core.DialectRevised}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := base.Clone()
				b.StartTimer()
				execBench(b, c.cfg, g, query, nil)
			}
		})
	}
}

// B4: DETACH DELETE of all users — legacy unchecked vs revised strict.
func BenchmarkB4Delete(b *testing.B) {
	base := workload.DefaultMarketplace().Build()
	query := `MATCH (u:User) DETACH DELETE u`
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"legacy", core.Config{Dialect: core.DialectCypher9}},
		{"revised-strict", core.Config{Dialect: core.DialectRevised}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := base.Clone()
				b.StartTimer()
				execBench(b, c.cfg, g, query, nil)
			}
		})
	}
}

// B5: read-only pattern matching (the Query 1 shape) at two scales,
// under the streaming (default) and materializing executors.
func BenchmarkB5Match(b *testing.B) {
	for _, scale := range []int{1, 4} {
		m := workload.DefaultMarketplace()
		m.Products *= scale
		m.Users *= scale
		m.Vendors *= scale
		g := m.Build()
		query := `
			MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)
			WHERE p.id < 10
			RETURN count(*) AS c`
		for _, ex := range []core.Executor{core.ExecStreaming, core.ExecMaterializing} {
			cfg := core.Config{Dialect: core.DialectRevised, Executor: ex}
			b.Run(fmt.Sprintf("%s/scale=%d", ex, scale), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					execBench(b, cfg, g, query, nil)
				}
			})
		}
	}
}

// B6: CREATE throughput (nodes+relationships per statement).
func BenchmarkB6Create(b *testing.B) {
	cfg := core.Config{Dialect: core.DialectRevised}
	query := `UNWIND range(1, 1000) AS i CREATE (:A{id:i})-[:T]->(:B{id:i})`
	b.Run("rows=1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := graph.New()
			execBench(b, cfg, g, query, nil)
		}
	})
}

// B7: the isomorphism checker used by the determinism experiments.
func BenchmarkB7Isomorphism(b *testing.B) {
	m := workload.DefaultMarketplace()
	m.Seed = 1
	g1 := m.Build()
	g2 := m.Build()
	b.Run("marketplace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !graph.Isomorphic(g1, g2) {
				b.Fatal("equal builds must be isomorphic")
			}
		}
	})
}

// B8: relationship-isomorphic vs homomorphic matching (the Example 7
// matching-mode dimension) on a dense pattern.
func BenchmarkB8MatchModes(b *testing.B) {
	m := workload.DefaultMarketplace()
	g := m.Build()
	query := `
		MATCH (a:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(bp:Product)
		WHERE a.id < 5
		RETURN count(*) AS c`
	for _, c := range []struct {
		name string
		mode match.Mode
	}{
		{"isomorphism", match.Isomorphism},
		{"homomorphism", match.Homomorphism},
	} {
		for _, ex := range []core.Executor{core.ExecStreaming, core.ExecMaterializing} {
			cfg := core.Config{Dialect: core.DialectRevised, MatchMode: c.mode, Executor: ex}
			b.Run(fmt.Sprintf("%s/%s", c.name, ex), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					execBench(b, cfg, g, query, nil)
				}
			})
		}
	}
}

// B9: the collapse strategies on the Example 7 clickstream shape, where
// long paths with repeated endpoints stress the collapse pass.
func BenchmarkB9ClickstreamCollapse(b *testing.B) {
	c := workload.Clickstream{Sessions: 300, PathLen: 5, Products: 40, Seed: 3}
	query := `MERGE ALL ` + c.PathQuery()
	for _, s := range []core.MergeStrategy{
		core.StrategyAtomic, core.StrategyCollapse, core.StrategyStrongCollapse,
	} {
		cfg := core.Config{Dialect: core.DialectRevised, MergeStrategy: s}
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, tbl := c.Build()
				b.StartTimer()
				execBench(b, cfg, g, query, tbl)
			}
		})
	}
}

// B10: LIMIT early exit. The streaming executor stops pattern
// enumeration after k rows; the materializing executor enumerates every
// match before slicing. The gap grows with graph size.
func BenchmarkB10LimitEarlyExit(b *testing.B) {
	g := graph.New()
	const n = 20000
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))})
	}
	query := `MATCH (m:N) WHERE m.i % 3 = 0 RETURN m.i AS i LIMIT 5`
	for _, ex := range []core.Executor{core.ExecStreaming, core.ExecMaterializing} {
		cfg := core.Config{Dialect: core.DialectRevised, Executor: ex}
		b.Run(ex.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := execBench(b, cfg, g, query, nil)
				if res.Table.Len() != 5 {
					b.Fatal("expected 5 rows")
				}
			}
		})
	}
}

// B11: cost-based anchor selection. The rare label sits at the RIGHT
// end of the path over a heavily skewed graph, so the pre-planner
// enumeration (left-to-right from the first node) scans every :Common
// node, while the planner anchors at :Rare and expands backwards.
func BenchmarkB11SelectiveAnchor(b *testing.B) {
	g := graph.New()
	const common, rare = 20000, 10
	var rares []graph.NodeID
	for i := 0; i < rare; i++ {
		rares = append(rares, g.CreateNode([]string{"Rare"}, value.Map{"r": value.Int(int64(i))}).ID)
	}
	for i := 0; i < common; i++ {
		c := g.CreateNode([]string{"Common"}, value.Map{"i": value.Int(int64(i))})
		// One in twenty Common nodes links to a Rare node, spread
		// round-robin across the Rare nodes.
		if i%20 == 0 {
			if _, err := g.CreateRel(c.ID, rares[(i/20)%rare], "R", nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	query := `MATCH (c:Common)-[:R]->(r:Rare) RETURN count(*) AS n`
	for _, c := range []struct {
		name    string
		planner core.PlannerMode
	}{
		{"naive", core.PlannerLeftToRight},
		{"planned", core.PlannerCostBased},
	} {
		cfg := core.Config{Dialect: core.DialectRevised, Planner: c.planner}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := execBench(b, cfg, g, query, nil)
				if n, _ := value.AsInt(res.Table.Get(0, "n")); n != common/20 {
					b.Fatalf("count = %v, want %d", res.Table.Get(0, "n"), common/20)
				}
			}
		})
	}
}

// B12: WHERE pushdown. The predicate on the anchor node decides 99% of
// candidates before their relationships are expanded; without pushdown
// every node's adjacency is enumerated and the filter runs on complete
// rows only.
func BenchmarkB12WherePushdown(b *testing.B) {
	g := graph.New()
	const nodes, fanout = 5000, 8
	var ids []graph.NodeID
	for i := 0; i < nodes; i++ {
		ids = append(ids, g.CreateNode([]string{"N"}, value.Map{"hot": value.Bool(i%100 == 0)}).ID)
	}
	for i, id := range ids {
		for j := 1; j <= fanout; j++ {
			if _, err := g.CreateRel(id, ids[(i+j)%nodes], "T", nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	query := `MATCH (a:N)-[:T]->(b:N) WHERE a.hot RETURN count(*) AS n`
	for _, c := range []struct {
		name    string
		planner core.PlannerMode
	}{
		{"naive", core.PlannerLeftToRight},
		{"planned", core.PlannerCostBased},
	} {
		cfg := core.Config{Dialect: core.DialectRevised, Planner: c.planner}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := execBench(b, cfg, g, query, nil)
				if n, _ := value.AsInt(res.Table.Get(0, "n")); n != nodes/100*fanout {
					b.Fatalf("count = %v, want %d", res.Table.Get(0, "n"), nodes/100*fanout)
				}
			}
		})
	}
}

// B13: aggregate read throughput of the transactional session layer.
// Eight reader goroutines run a B5-style match+aggregate workload
// through the public API in two regimes:
//
//   - serialized: the pre-snapshot design — every statement takes one
//     global mutex, and a multi-statement transaction must hold it from
//     BEGIN to COMMIT (without snapshot isolation, a reader interleaved
//     mid-transaction would observe torn state);
//   - concurrent: the session layer's native path — readers pin a
//     snapshot and stream with no lock held, while the writer works on
//     the side.
//
// The bulk-txn cases run the read workload while one writer commits an
// 8-statement bulk create/delete transaction; the clock stops when the
// read workload completes (the writer drains off-clock, performing
// identical work in both regimes), so ns/op is the inverse of aggregate
// read throughput under identical write load. The readonly cases
// isolate pure reader fan-out, which additionally scales with
// GOMAXPROCS on multicore hosts; the bulk-txn gap — readers not
// queueing behind a bulk transaction — shows even on one CPU.
func BenchmarkB13ConcurrentReaders(b *testing.B) {
	const (
		readers        = 8
		readsPerReader = 3
		writeBatch     = 16000
	)
	load := func() *cypher.DB {
		g := workload.DefaultMarketplace().Build()
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		db, err := cypher.Load(&buf)
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	readQ := `
		MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User)
		RETURN count(*) AS c`
	writeQs := []string{
		fmt.Sprintf(`UNWIND range(1, %d) AS i CREATE (:Tmp{i:i})`, writeBatch),
		`MATCH (t:Tmp) DELETE t`,
	}

	const writerStmts = 8
	run := func(b *testing.B, withWriter bool, serialize bool) {
		db := load()
		var mu sync.Mutex
		lock := func() func() {
			if !serialize {
				return func() {}
			}
			mu.Lock()
			return mu.Unlock
		}
		read := func() {
			defer lock()()
			if _, err := db.Exec(readQ, nil); err != nil {
				b.Error(err)
			}
		}
		// The writer's bulk transaction: identical statements in both
		// regimes. Serialized execution must hold the global lock from
		// BEGIN to COMMIT — without snapshots, that is the only way
		// readers cannot observe the transaction's intermediate states.
		writeTxn := func() {
			defer lock()()
			sess := db.Session()
			defer sess.Close()
			if _, err := sess.Exec(`BEGIN`, nil); err != nil {
				b.Error(err)
				return
			}
			for j := 0; j < writerStmts; j++ {
				if _, err := sess.Exec(writeQs[j%len(writeQs)], nil); err != nil {
					b.Error(err)
					return
				}
			}
			if _, err := sess.Exec(`COMMIT`, nil); err != nil {
				b.Error(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			writerDone := make(chan struct{})
			if withWriter {
				go func() {
					defer close(writerDone)
					writeTxn()
				}()
			} else {
				close(writerDone)
			}
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < readsPerReader; k++ {
						read()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			<-writerDone
			b.StartTimer()
		}
	}
	b.Run("serialized/readonly", func(b *testing.B) { run(b, false, true) })
	b.Run("concurrent/readonly", func(b *testing.B) { run(b, false, false) })
	b.Run("serialized/bulk-txn", func(b *testing.B) { run(b, true, true) })
	b.Run("concurrent/bulk-txn", func(b *testing.B) { run(b, true, false) })
}

// B14: property-index seeks. The match cases run a point lookup
// (`u.id = k`) over 100k single-label nodes: the label scan visits all
// of them, the index seek reads one bucket. The merge cases run a bulk
// upsert whose read phase re-matches the key per record — without an
// index each record rescans the growing label (O(n²) overall); with an
// index maintained incrementally under MERGE's own writes, every
// lookup is a bucket probe.
func BenchmarkB14IndexSeek(b *testing.B) {
	const n = 100000
	build := func(withIndex bool) *graph.Graph {
		g := graph.New()
		if withIndex {
			g.CreateIndex("User", "id")
		}
		for i := 0; i < n; i++ {
			g.CreateNode([]string{"User"}, value.Map{"id": value.Int(int64(i))})
		}
		return g
	}
	matchQ := `MATCH (u:User) WHERE u.id = 99999 RETURN u.id AS id`
	cfg := core.Config{Dialect: core.DialectRevised}
	for _, c := range []struct {
		name      string
		withIndex bool
	}{
		{"match/label-scan", false},
		{"match/index-seek", true},
	} {
		g := build(c.withIndex)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := execBench(b, cfg, g, matchQ, nil)
				if res.Table.Len() != 1 {
					b.Fatal("expected 1 row")
				}
			}
		})
	}

	const rows = 2000
	upsert := table.New("cid")
	for i := 0; i < rows; i++ {
		upsert.AppendRow(value.Int(int64(i % (rows / 2)))) // every key hit twice
	}
	mergeQ := `MERGE (:User{id:cid})`
	legacy := core.Config{Dialect: core.DialectCypher9}
	for _, c := range []struct {
		name      string
		withIndex bool
	}{
		{"merge/label-scan", false},
		{"merge/index-seek", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := graph.New()
				if c.withIndex {
					g.CreateIndex("User", "id")
				}
				b.StartTimer()
				res := execBench(b, legacy, g, mergeQ, upsert.Clone())
				if res.Stats.NodesCreated != rows/2 {
					b.Fatalf("created %d nodes, want %d", res.Stats.NodesCreated, rows/2)
				}
			}
		})
	}
}

// B15: commit latency of a small write transaction while a reader
// keeps the published snapshot pinned, at two graph scales. The pinned
// reader forces the writer off the in-place path; the copy-on-write
// clone copies only the container directories plus the buckets the
// transaction touches, so its latency tracks the transaction size and
// stays nearly flat across graph scales. The deep-clone cases replay
// what the store did before PR 5 — Clone() the whole graph per
// transaction, mutate under a journal, publish the clone — and their
// latency tracks the graph size instead (the ≥10x acceptance gap at
// 100k nodes). Each transaction creates one node, links it, and
// updates one indexed property: every container family (entity maps,
// adjacency, label sets, statistics, property-index buckets) takes a
// write.
func BenchmarkB15CommitUnderReaders(b *testing.B) {
	build := func(n int) *graph.Graph {
		g := graph.New()
		g.CreateIndex("User", "id")
		for i := 0; i < n; i++ {
			g.CreateNode([]string{"User"}, value.Map{"id": value.Int(int64(i))})
		}
		return g
	}
	smallTxn := func(b *testing.B, g *graph.Graph, i int) {
		b.Helper()
		n := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(int64(1_000_000 + i))})
		if _, err := g.CreateRel(n.ID, graph.NodeID(1), "KNOWS", nil); err != nil {
			b.Fatal(err)
		}
		if err := g.SetNodeProp(graph.NodeID(1), "id", value.Int(int64(-i))); err != nil {
			b.Fatal(err)
		}
	}
	for _, scale := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("cow-commit/nodes=%d", scale), func(b *testing.B) {
			s := graph.NewStore(build(scale))
			// The reader re-pins every committed epoch, so EVERY
			// BeginWrite sees a pinned current snapshot and takes the
			// copy-on-write path (pinning only the first epoch would let
			// iterations 2..N go in place and benchmark the wrong path).
			pin := s.Acquire()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := s.BeginWrite()
				smallTxn(b, w.Graph(), i)
				w.Commit()
				next := s.Acquire()
				pin.Release()
				pin = next
			}
			b.StopTimer()
			pin.Release()
		})
		b.Run(fmt.Sprintf("deep-clone-commit/nodes=%d", scale), func(b *testing.B) {
			published := build(scale) // the pre-PR5 writer: whole-graph clone per txn
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				working := published.Clone()
				j := working.BeginJournal()
				smallTxn(b, working, i)
				j.Commit()
				published = working
			}
		})
	}
}

// B16: the vectorized executor against the row-at-a-time streaming
// baseline on read pipelines — the per-row map allocations and pull
// calls the batch discipline amortizes show up as allocs/op and ns/row.
func BenchmarkB16BatchedExecutor(b *testing.B) {
	const n = 20000
	g := graph.New()
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"U"}, value.Map{
			"i": value.Int(int64(i)),
			"g": value.Int(int64(i % 64)),
		})
	}
	tbl := table.New("x")
	for i := 0; i < 50000; i++ {
		tbl.AppendRow(value.Int(int64(i)))
	}
	queries := []struct {
		name, q string
		t0      *table.Table
	}{
		{"match-filter-project", `MATCH (u:U) WITH u.i AS i WHERE i % 3 = 0 RETURN i % 7 AS r, i`, nil},
		{"table-filter-project", `WITH x WHERE x % 2 = 0 RETURN x % 997 AS r, x`, tbl},
		{"table-distinct", `RETURN DISTINCT x % 512 AS r`, tbl},
	}
	execs := []struct {
		name string
		ex   core.Executor
	}{
		{"batched", core.ExecStreaming},
		{"row-at-a-time", core.ExecStreamingRows},
	}
	for _, q := range queries {
		for _, e := range execs {
			b.Run(fmt.Sprintf("%s/%s/nodes=%d", q.name, e.name, n), func(b *testing.B) {
				cfg := core.Config{Dialect: core.DialectRevised, Executor: e.ex}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					execBench(b, cfg, g, q.q, q.t0)
				}
			})
		}
	}
}

// B17: barrier-heavy pipelines (ORDER BY over everything, then a
// high-cardinality aggregation) whose working set exceeds a small
// memory budget. The budgeted run spills sorted runs and hash
// partitions to temp files; the benchmark first asserts its output is
// bit-identical to the unlimited in-memory run, then measures the cost
// of bounded peak memory.
func BenchmarkB17SpillingBarriers(b *testing.B) {
	const n = 30000
	g := graph.New()
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"E"}, value.Map{
			"i": value.Int(int64(i)),
			"k": value.Int(int64((i * 7919) % n)), // high-cardinality group key
		})
	}
	query := `MATCH (e:E) WITH e.k AS k, e.i AS i ORDER BY k DESC, i RETURN k % 1000 AS bucket, count(*) AS c, min(i) AS lo ORDER BY bucket`
	budgets := []struct {
		name   string
		budget int64
	}{
		{"unlimited", 0},
		{"budget=256KB", 256 << 10},
		{"budget=64KB", 64 << 10},
	}
	render := func(cfg core.Config) string {
		res := execBench(b, cfg, g, query, nil)
		return res.Table.String()
	}
	want := render(core.Config{Dialect: core.DialectRevised})
	for _, c := range budgets[1:] {
		if got := render(core.Config{Dialect: core.DialectRevised, MemoryBudget: c.budget}); got != want {
			b.Fatalf("%s output diverges from unlimited run", c.name)
		}
	}
	for _, c := range budgets {
		b.Run(fmt.Sprintf("%s/nodes=%d", c.name, n), func(b *testing.B) {
			cfg := core.Config{Dialect: core.DialectRevised, MemoryBudget: c.budget}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				execBench(b, cfg, g, query, nil)
			}
		})
	}
}

// B18: durable commit latency. The same small write transaction
// against the in-memory store and against WAL-backed stores in each
// sync mode: no sync (crash loses the tail), grouped fsync every 2ms
// (bounded loss window, amortized sync), and fsync-per-commit (the
// durability contract, dominated by the disk's flush latency).
func BenchmarkB18DurableCommit(b *testing.B) {
	smallTxn := func(b *testing.B, g *graph.Graph, i int) {
		b.Helper()
		n := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(int64(i))})
		m := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(int64(-i))})
		if _, err := g.CreateRel(n.ID, m.ID, "KNOWS", nil); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, st *graph.Store) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := st.BeginWrite()
			smallTxn(b, w.Graph(), i)
			if _, err := w.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) {
		run(b, graph.NewStore(graph.New()))
	})
	for _, mode := range []struct {
		name string
		d    graph.Durability
	}{
		{"wal-sync-never", graph.Durability{Sync: graph.SyncNever}},
		{"wal-sync-2ms", graph.Durability{Sync: graph.SyncInterval, SyncEvery: 2 * time.Millisecond}},
		{"wal-sync-always", graph.Durability{Sync: graph.SyncAlways}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, wal, err := graph.Recover(b.TempDir(), mode.d)
			if err != nil {
				b.Fatal(err)
			}
			run(b, st)
			b.StopTimer()
			if err := wal.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// B19: morsel-parallel read scaling. Two read pipelines over a 100k-
// node graph — a scan-filter-aggregate and a relationship-expanding
// match-filter — at explicit worker degrees 1, 2, 4 and 8, so one run
// records the whole scaling curve (the degree is the engine's worker-
// pool size, not GOMAXPROCS; pass -cpu to scale the hardware too).
// Before timing, every parallel degree's output is asserted
// bit-identical to the serial run. par=1 measures the exchange-free
// serial plan, i.e. the overhead baseline.
func BenchmarkB19ParallelScaling(b *testing.B) {
	const n = 100000
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		nd := g.CreateNode([]string{"U"}, value.Map{
			"i": value.Int(int64(i)),
			"g": value.Int(int64(i % 64)),
		})
		ids[i] = nd.ID
	}
	for i := 0; i < n; i++ {
		if _, err := g.CreateRel(ids[i], ids[(i+1)%n], "F", nil); err != nil {
			b.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := g.CreateRel(ids[i], ids[(i*7919+13)%n], "F", nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	queries := []struct{ name, q string }{
		{"scan-filter-aggregate", `MATCH (u:U) WHERE u.i % 3 = 0 RETURN u.g AS g, count(*) AS c, min(u.i) AS lo`},
		{"match-heavy", `MATCH (u:U)-[:F]->(v:U) WHERE v.i % 17 = 0 AND u.i < v.i RETURN u.g AS a, count(*) AS c`},
	}
	for _, q := range queries {
		want := execBench(b, core.Config{Dialect: core.DialectRevised, Parallelism: 1}, g, q.q, nil).Table.String()
		for _, par := range []int{2, 4, 8} {
			cfg := core.Config{Dialect: core.DialectRevised, Parallelism: par}
			if got := execBench(b, cfg, g, q.q, nil).Table.String(); got != want {
				b.Fatalf("%s par=%d output diverges from serial", q.name, par)
			}
		}
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/par=%d/nodes=%d", q.name, par, n), func(b *testing.B) {
				cfg := core.Config{Dialect: core.DialectRevised, Parallelism: par}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					execBench(b, cfg, g, q.q, nil)
				}
			})
		}
	}
}

func BenchmarkB20ServerConcurrentClients(b *testing.B) {
	const n = 20000
	db := cypher.Open()
	if _, err := db.Exec(`UNWIND range(0, `+fmt.Sprint(n-1)+`) AS i CREATE (:User{id:i, name:'u'})`, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX ON :User(id)`, nil); err != nil {
		b.Fatal(err)
	}
	addr := serveBench(b, db)

	const q = `MATCH (u:User{id:$i}) RETURN u.name AS name`
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d/nodes=%d", clients, n), func(b *testing.B) {
			conns := make([]*cypherclient.Conn, clients)
			for i := range conns {
				c, err := cypherclient.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[i] = c
			}
			before := db.CacheStats()
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for _, c := range conns {
				wg.Add(1)
				go func(c *cypherclient.Conn) {
					defer wg.Done()
					for {
						op := next.Add(1) - 1
						if op >= int64(b.N) {
							return
						}
						res, err := c.Exec(q, map[string]any{"i": op * 7919 % n})
						if err != nil {
							b.Error(err)
							return
						}
						if len(res.Rows) != 1 {
							b.Errorf("op %d: %d rows", op, len(res.Rows))
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
			b.StopTimer()
			// The whole point of the engine-level cache: concurrent
			// sessions running the same text plan once and hit after.
			after := db.CacheStats()
			if b.N > 1 && after.Plan.Hits <= before.Plan.Hits {
				b.Fatalf("no cross-session plan-cache hits: %+v -> %+v", before.Plan, after.Plan)
			}
			if b.N > 1 && after.StmtHits <= before.StmtHits {
				b.Fatalf("no cross-session statement-cache hits: %+v -> %+v", before, after)
			}
		})
	}
}

// serveBench serves db on a loopback port for the rest of the benchmark
// and returns the address.
func serveBench(b *testing.B, db *cypher.DB) string {
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
		<-done
	})
	return ln.Addr().String()
}

// B21: expression-heavy read pipelines over 100k rows — string and
// list functions (split, reduce, size, toUpper) in the projection, a
// registry-gated conjunct pair in the WHERE. Two axes:
//
//   - folded vs unfolded: the filter threshold is a parameter-free
//     pure subtree (size of a literal string) in the folded variants,
//     so the planner collapses it to a constant at plan time; the
//     unfolded variants route the same value through a parameter,
//     which folding never touches, so the subtree re-evaluates on
//     every row.
//   - pushdown vs deferred: the cost-based planner pushes the
//     pure+total conjuncts (exists above all) into the scan; the
//     left-to-right planner defers the whole WHERE to a post-match
//     filter.
func BenchmarkB21ExpressionPipeline(b *testing.B) {
	const n = 100000
	g := graph.New()
	tags := []string{"alpha,beta", "gamma", "delta,epsilon,zeta", "eta,theta"}
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"R"}, value.Map{
			"v":   value.Int(int64(i)),
			"tag": value.String(tags[i%len(tags)]),
		})
	}
	const body = ` RETURN sum(reduce(s = 0, w IN split(r.tag, ',') | s + size(w))) AS letters,
	       count(*) AS n`
	const foldedQ = `MATCH (r:R) WHERE exists(r.tag) AND r.v % size('abcdefghij') = 0` + body
	const unfoldedQ = `MATCH (r:R) WHERE exists(r.tag) AND r.v % size($s) = 0` + body
	params := map[string]value.Value{"s": value.String("abcdefghij")}

	for _, c := range []struct {
		name    string
		query   string
		params  map[string]value.Value
		planner core.PlannerMode
	}{
		{"folded/pushdown", foldedQ, nil, core.PlannerCostBased},
		{"unfolded/pushdown", unfoldedQ, params, core.PlannerCostBased},
		{"folded/deferred", foldedQ, nil, core.PlannerLeftToRight},
		{"unfolded/deferred", unfoldedQ, params, core.PlannerLeftToRight},
	} {
		cfg := core.Config{Dialect: core.DialectRevised, Planner: c.planner}
		stmt, err := parser.Parse(c.query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+fmt.Sprintf("/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.NewEngine(cfg).ExecuteStatement(g, stmt, c.params)
				if err != nil {
					b.Fatal(err)
				}
				if cnt, _ := value.AsInt(res.Table.Get(0, "n")); cnt != n/10 {
					b.Fatalf("count = %v, want %d", res.Table.Get(0, "n"), n/10)
				}
			}
		})
	}
}

// B22: end-to-end write latency against graph size. A one-node CREATE
// and a one-relationship CREATE (endpoints found by index seek) go
// through cypher.DB.Exec, so every iteration pays parsing, planning,
// execution, the statement-boundary invariant and the commit. The
// statements' own work is constant, so ns/op should stay flat from 1k
// to 100k relationships; any per-statement O(graph) step shows up as
// growth proportional to the graph.
func BenchmarkB22WriteLatencyVsGraphSize(b *testing.B) {
	for _, rels := range []int{1000, 10000, 100000} {
		// A ring of rels :P nodes, one :L relationship per node.
		g := graph.New()
		g.CreateIndex("P", "id")
		for i := 0; i < rels; i++ {
			g.CreateNode([]string{"P"}, value.Map{"id": value.Int(int64(i))})
		}
		ids := g.NodeIDs()
		for i, id := range ids {
			if _, err := g.CreateRel(id, ids[(i+1)%len(ids)], "L", nil); err != nil {
				b.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		db, err := cypher.Load(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name, query string
			params      func(i int) map[string]any
		}{
			{"create-node", `CREATE (:N{i:$i})`,
				func(i int) map[string]any { return map[string]any{"i": i} }},
			{"create-rel", `MATCH (a:P{id:$a}), (b:P{id:$b}) CREATE (a)-[:W]->(b)`,
				func(i int) map[string]any { return map[string]any{"a": i % rels, "b": (i * 7) % rels} }},
		} {
			b.Run(fmt.Sprintf("%s/rels=%d", c.name, rels), func(b *testing.B) {
				// One untimed run fills the statement and plan caches,
				// which -benchtime 10x would otherwise mostly measure.
				if _, err := db.Exec(c.query, c.params(rels)); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := db.Exec(c.query, c.params(i))
					if err != nil {
						b.Fatal(err)
					}
					if st := res.Stats(); st.NodesCreated+st.RelsCreated != 1 {
						b.Fatalf("%s created %+v, want one entity", c.name, st)
					}
				}
			})
		}
	}
}

// B23: the fixed cost of one served statement. One in-process server,
// one cypherclient connection, one statement at a time: an indexed
// point lookup (one row, so the wire and per-statement buffers are most
// of the cost) and a 100-row read of 100 index seeks (the rows come
// back in the run's own reply, one round trip). With -benchmem the
// allocation columns show client, server and engine together.
func BenchmarkB23WireRoundTrip(b *testing.B) {
	const n = 20000
	db := cypher.Open()
	if _, err := db.Exec(`UNWIND range(0, `+fmt.Sprint(n-1)+`) AS i CREATE (:User{id:i, name:'u' + toString(i), age: i % 100})`, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX ON :User(id)`, nil); err != nil {
		b.Fatal(err)
	}
	c, err := cypherclient.Dial(serveBench(b, db))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, q := range []struct {
		name, query string
		rows        int
		params      func(i int) map[string]any
	}{
		{"point-lookup", `MATCH (u:User{id:$i}) RETURN u.name AS name`, 1,
			func(i int) map[string]any { return map[string]any{"i": i * 7919 % n} }},
		{"read-100-rows", `UNWIND range($lo, $lo + 99) AS i MATCH (u:User{id:i}) RETURN u.id AS id, u.age AS age`, 100,
			func(i int) map[string]any { return map[string]any{"lo": i * 7919 % (n - 100)} }},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.Exec(q.query, q.params(i))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != q.rows {
					b.Fatalf("%s: %d rows, want %d", q.name, len(res.Rows), q.rows)
				}
			}
		})
	}
}

// Sanity checks keep the benchmark inputs honest (run under `go test`).
func TestBenchWorkloadsAreValid(t *testing.T) {
	tbl := workload.DefaultOrderImport(100).Build()
	if tbl.Len() != 100 {
		t.Fatal("order import rows")
	}
	g := graph.New()
	stmt, err := parser.Parse(importQuerySame)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(core.Config{Dialect: core.DialectRevised}).
		ExecuteWithTable(g, stmt, nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesCreated == 0 {
		t.Fatal("import created nothing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Imported ids must be unique per label under MERGE SAME.
	seen := map[string]bool{}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		key := fmt.Sprint(n.SortedLabels(), value.MapKey(n.PropMap()))
		if seen[key] {
			t.Fatalf("duplicate collapsed node %s", key)
		}
		seen[key] = true
	}
}
