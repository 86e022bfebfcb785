package main

import (
	"fmt"
	"runtime"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
)

// counts are the update counters every entry point reports, in one
// shape so checks do not care which entry point ran the statement.
type counts struct {
	nodesCreated, nodesDeleted, relsCreated, relsDeleted, propsSet int
}

// execer runs one statement through one public entry point.
type execer interface {
	exec(query string, params map[string]any) ([][]value.Value, counts, error)
}

// dbExec runs statements embedded, through cypher.DB.Exec.
type dbExec struct{ db *cypher.DB }

func (d dbExec) exec(q string, params map[string]any) ([][]value.Value, counts, error) {
	res, err := d.db.Exec(q, params)
	if err != nil {
		return nil, counts{}, err
	}
	rows := make([][]value.Value, res.NumRows())
	for i := range rows {
		rows[i] = res.Values(i)
	}
	return rows, coreCounts(res.Stats()), nil
}

func coreCounts(s core.UpdateStats) counts {
	return counts{s.NodesCreated, s.NodesDeleted, s.RelsCreated, s.RelsDeleted, s.PropsSet}
}

// connExec runs statements over the wire, through cypherclient.Conn.Exec.
type connExec struct{ c *cypherclient.Conn }

func (c connExec) exec(q string, params map[string]any) ([][]value.Value, counts, error) {
	res, err := c.c.Exec(q, params)
	if err != nil {
		return nil, counts{}, err
	}
	s := res.Stats
	return res.Rows, counts{s.NodesCreated, s.NodesDeleted, s.RelsCreated, s.RelsDeleted, s.PropsSet}, nil
}

// stack is the engine assembled from its layers exactly as cypher.Open
// and cypher.OpenDir assemble it (a graph.Store and a core.Engine), so
// the traced run can time the public calls of each layer on it. eng1
// shares the store at Parallelism 1 for the parallel-speedup probe.
// Like cypher.DB.Exec, every statement gets a fresh core.Session, so
// clients may share a stack.
type stack struct {
	store     *graph.Store
	wal       *graph.WAL // nil when in memory
	eng, eng1 *core.Engine
}

func newStack(store *graph.Store, wal *graph.WAL, par int) *stack {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	eng := core.NewEngine(core.Config{Dialect: core.DialectRevised, Parallelism: par})
	eng1 := core.NewEngine(core.Config{Dialect: core.DialectRevised, Parallelism: 1})
	return &stack{store: store, wal: wal, eng: eng, eng1: eng1}
}

// memStack is an in-memory stack, as cypher.Open builds it.
func memStack() *stack { return newStack(graph.NewStore(graph.New()), nil, 0) }

// dirStack is a durable stack rooted at dir, as cypher.OpenDir builds it.
func dirStack(dir string, d graph.Durability) (*stack, error) {
	store, wal, err := graph.Recover(dir, d)
	if err != nil {
		return nil, err
	}
	return newStack(store, wal, 0), nil
}

func (s *stack) close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

func convertParams(params map[string]any) (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(params))
	for k, v := range params {
		cv, err := value.FromGo(v)
		if err != nil {
			return nil, fmt.Errorf("parameter $%s: %w", k, err)
		}
		out[k] = cv
	}
	return out, nil
}

// tableRows copies a core result's table into rows.
func tableRows(res *core.Result) [][]value.Value {
	rows := make([][]value.Value, res.Table.Len())
	for i := range rows {
		rows[i] = res.Table.Values(i)
	}
	return rows
}

func (s *stack) exec(q string, params map[string]any) ([][]value.Value, counts, error) {
	stmt, err := s.eng.Parse(q)
	if err != nil {
		return nil, counts{}, err
	}
	vp, err := convertParams(params)
	if err != nil {
		return nil, counts{}, err
	}
	res, err := core.NewSession(s.eng, s.store).ExecuteWithTable(stmt, vp, nil)
	if err != nil {
		return nil, counts{}, err
	}
	return tableRows(res), coreCounts(res.Stats), nil
}
