package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/cypher"
	"repro/internal/graph"
	"repro/internal/value"
)

const (
	baseCustomers = 20000
	baseProducts  = 2000
	baseBatch     = 1000
	// ingestWindow is how many batches of orders stay live: each batch
	// deletes the orders of the batch this many back.
	ingestWindow = 10
)

const (
	qIngestMerge = `UNWIND $rows AS r MERGE ALL (c:Customer {id: r.cid}) MERGE ALL (p:Product {id: r.pid}) MERGE ALL (c)-[:ORDERED {batch: $batch, qty: r.qty}]->(p)`
	qIngestStock = `UNWIND $rows AS r MATCH (p:Product {id: r.pid}) WITH p, sum(r.qty) AS q SET p.stock = p.stock - q`
	qIngestPrune = `MATCH (:Customer)-[o:ORDERED {batch: $batch}]->(:Product) DELETE o`
)

// setupIngest opens a durable database in a fresh directory under
// cfg.dir with fsync on every commit (SyncAlways, the default) and the
// default checkpoint threshold, and loads customers and products with
// their indexes. The traced run opens a stack on the same kind of
// directory instead.
func setupIngest(cfg config) (*instance, error) {
	dir, err := os.MkdirTemp(cfg.dir, "ingest-")
	if err != nil {
		return nil, err
	}
	g := newIngestGen(cfg.seed, cfg.scale)
	inst := &instance{flush: graph.SyncAlways.String(), dir: dir}
	var (
		ex     execer
		status func() graph.WALStatus
	)
	if cfg.traced {
		st, err := dirStack(dir, graph.Durability{Sync: graph.SyncAlways})
		if err != nil {
			return nil, err
		}
		inst.probe, ex = st, st
		inst.cache = st.eng.CacheStats
		inst.size = st.size
		inst.closeFn = st.close
		status = st.wal.Status
		inst.checkpoint = st.store.Checkpoint
	} else {
		db, err := cypher.OpenDir(dir, cypher.WithDurability(cypher.Durability{Sync: cypher.SyncAlways}))
		if err != nil {
			return nil, err
		}
		ex = dbExec{db}
		inst.cache = db.CacheStats
		inst.size = func() (int, int) { return db.NumNodes(), db.NumRels() }
		inst.closeFn = db.Close
		status = func() graph.WALStatus { s, _ := db.WALStatus(); return s }
		inst.checkpoint = db.Checkpoint
	}
	inst.execs = []execer{ex}
	inst.gens = []opGen{g}
	if err := g.load(ex); err != nil {
		inst.close()
		return nil, err
	}
	g.disk = &diskMeter{status: status, snapshot: filepath.Join(dir, "snapshot.json")}
	inst.disk = g.disk
	inst.final = func() error {
		return expectCounts(ex, []countCheck{
			{"MATCH (c:Customer) RETURN count(c)", int64(g.customers)},
			{"MATCH (p:Product) RETURN count(p)", int64(g.products)},
			{"MATCH (p:Product) RETURN sum(p.stock)", g.stock},
			{"MATCH (:Customer)-[o:ORDERED]->(:Product) RETURN count(o)", g.live},
		})
	}
	return inst, nil
}

// ingestGen is the paper's Example 5 import at steady state: each batch
// of generated (cid, pid, qty) rows runs a MERGE ALL upsert, an
// aggregated stock SET and a DELETE of the orders ingestWindow batches
// back. It also keeps the accounting the final check compares with.
type ingestGen struct {
	rng                 *rand.Rand
	customers, products int
	perBatch            int
	batch               int // number of the batch being sent
	stage               int // 0 merge, 1 stock, 2 prune
	rows                []any
	qtySum              int64
	distinct            int
	stock, live         int64 // expected total stock and :ORDERED count
	initialStock        []int64
	disk                *diskMeter
}

func newIngestGen(seed int64, scale float64) *ingestGen {
	g := &ingestGen{rng: rand.New(rand.NewSource(seed*1000 + 1)),
		customers: scaled(baseCustomers, scale), products: scaled(baseProducts, scale),
		perBatch: scaled(baseBatch, scale), batch: -1, stage: 2}
	for p := 0; p < g.products; p++ {
		s := 1_000_000 + g.rng.Int63n(1000)
		g.initialStock = append(g.initialStock, s)
		g.stock += s
	}
	return g
}

func (g *ingestGen) load(ex execer) error {
	for _, q := range []string{"CREATE INDEX ON :Customer(id)", "CREATE INDEX ON :Product(id)"} {
		if _, _, err := ex.exec(q, nil); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	var rows []any
	for c := 0; c < g.customers; c++ {
		rows = append(rows, map[string]any{"id": c, "name": fmt.Sprintf("customer-%d", c)})
		if len(rows) == loadChunk || c == g.customers-1 {
			if _, _, err := ex.exec(`UNWIND $rows AS r CREATE (:Customer {id: r.id, name: r.name})`, map[string]any{"rows": rows}); err != nil {
				return fmt.Errorf("load customers: %w", err)
			}
			rows = rows[:0]
		}
	}
	for p := 0; p < g.products; p++ {
		rows = append(rows, map[string]any{"id": p, "stock": g.initialStock[p]})
	}
	if _, _, err := ex.exec(`UNWIND $rows AS r CREATE (:Product {id: r.id, stock: r.stock})`, map[string]any{"rows": rows}); err != nil {
		return fmt.Errorf("load products: %w", err)
	}
	return nil
}

func (g *ingestGen) next() *op {
	if g.disk != nil {
		g.disk.observe()
	}
	g.stage++
	if g.stage == 2 && g.batch < ingestWindow {
		g.stage++ // nothing to prune yet
	}
	if g.stage == 3 {
		g.stage = 0
		g.batch++
		g.newBatch()
	}
	batch := g.batch
	switch g.stage {
	case 0:
		n := int64(len(g.rows))
		return &op{class: "merge", write: true, query: qIngestMerge, rows: len(g.rows),
			params: map[string]any{"rows": g.rows, "batch": batch},
			check: func(_ [][]value.Value, c counts) error {
				if c.relsCreated != int(n) || c.nodesCreated != 0 {
					return fmt.Errorf("batch %d: %+v, want %d orders and no nodes", batch, c, n)
				}
				g.live += n
				return nil
			}}
	case 1:
		q, d := g.qtySum, g.distinct
		return &op{class: "stock", write: true, query: qIngestStock,
			params: map[string]any{"rows": g.rows},
			check: func(_ [][]value.Value, c counts) error {
				if c.propsSet != d {
					return fmt.Errorf("batch %d: %d stock updates, want %d", batch, c.propsSet, d)
				}
				g.stock -= q
				return nil
			}}
	default:
		old, n := batch-ingestWindow, g.perBatch
		return &op{class: "prune", write: true, query: qIngestPrune,
			params: map[string]any{"batch": old},
			check: func(_ [][]value.Value, c counts) error {
				if c.relsDeleted != n {
					return fmt.Errorf("batch %d: %d orders deleted, want %d", old, c.relsDeleted, n)
				}
				g.live -= int64(n)
				return nil
			}}
	}
}

// boundary reports whether the next statement starts a new batch.
func (g *ingestGen) boundary() bool {
	return g.stage == 2 || g.stage == 1 && g.batch < ingestWindow
}

func (g *ingestGen) newBatch() {
	g.rows = make([]any, g.perBatch)
	g.qtySum = 0
	seen := map[int]bool{}
	for i := range g.rows {
		cid, pid, qty := g.rng.Intn(g.customers), g.rng.Intn(g.products), 1+g.rng.Int63n(5)
		g.rows[i] = map[string]any{"cid": cid, "pid": pid, "qty": qty}
		g.qtySum += qty
		seen[pid] = true
	}
	g.distinct = len(seen)
}

// diskMeter follows the write-ahead log between statements: bytes
// appended per commit, and checkpoint snapshots with their sizes.
type diskMeter struct {
	status   func() graph.WALStatus
	snapshot string
	last     graph.WALStatus
	started  bool

	walBytes, commits int64 // over commits that did not checkpoint
	allCommits        int64
	checkpoints       int64
	snapshotBytes     int64
}

// reset starts a new measuring window.
func (m *diskMeter) reset() {
	*m = diskMeter{status: m.status, snapshot: m.snapshot}
}

func (m *diskMeter) observe() {
	s := m.status()
	if !m.started {
		m.last, m.started = s, true
		return
	}
	commits := s.Records - m.last.Records
	m.allCommits += commits
	if s.Checkpoints == m.last.Checkpoints {
		m.walBytes += s.Bytes - m.last.Bytes
		m.commits += commits
	} else {
		m.checkpoints += s.Checkpoints - m.last.Checkpoints
		if fi, err := os.Stat(m.snapshot); err == nil {
			m.snapshotBytes += fi.Size()
		}
	}
	m.last = s
}

// perCommit is the mean log bytes one commit appends.
func (m *diskMeter) perCommit() float64 {
	if m.commits == 0 {
		return 0
	}
	return float64(m.walBytes) / float64(m.commits)
}

// bytesPerRow is log bytes appended plus checkpoint snapshot bytes
// written, per ingested row. Commits that checkpointed are counted at
// the mean record size, since the log was truncated under them.
func (m *diskMeter) bytesPerRow(rows int64) float64 {
	if rows == 0 {
		return 0
	}
	return (m.perCommit()*float64(m.allCommits) + float64(m.snapshotBytes)) / float64(rows)
}
