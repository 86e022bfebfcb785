package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/cypher"
	"repro/internal/value"
)

// analyticsClass is one parameterised read class; params draws the
// class's parameters for pool slot i, so every statement the workload
// sends has a reference result captured at Parallelism 1.
type analyticsClass struct {
	name   string
	query  string
	params func(i int, users int) map[string]any
}

// analyticsPool is the number of parameter sets per class. With 5
// classes that makes 15 statement kinds per round: an odd count puts the
// p50 and p90 ranks inside one kind's samples instead of on the gap
// between two kinds, where the reported value would jump between them.
const analyticsPool = 3

var analyticsClasses = []analyticsClass{
	{"scan_agg",
		`MATCH (u:User) WHERE u.age >= $lo AND u.age < $hi RETURN u.city AS city, count(*) AS n, avg(u.age) AS a ORDER BY city`,
		func(i, _ int) map[string]any { return map[string]any{"lo": 18 + 10*i, "hi": 40 + 10*i} }},
	{"expand_agg",
		`MATCH (a:User)-[k:KNOWS]->(b:User) WHERE a.age < $x AND b.age > $y RETURN a.city AS city, count(*) AS n, max(k.since) AS s ORDER BY city`,
		func(i, _ int) map[string]any { return map[string]any{"x": 25 + 3*i, "y": 30 + 5*i} }},
	{"expr_proj",
		`MATCH (u:User) WHERE u.age >= $a RETURN u.id AS id, toUpper(u.name) + ':' + toString(size(split(u.name, '-'))) AS tag, reduce(acc = 0, x IN range(1, u.age % 7 + 1) | acc + x * $k) AS r ORDER BY id`,
		func(i, _ int) map[string]any { return map[string]any{"a": 50 + 5*i, "k": i + 1} }},
	{"topk",
		`MATCH (u:User)-[:KNOWS]->(f:User) WHERE u.age > $a RETURN f.id AS id, count(*) AS n, sum(u.age) AS s ORDER BY n DESC, s DESC, id LIMIT 20`,
		func(i, _ int) map[string]any { return map[string]any{"a": 60 + 4*i} }},
	{"opt_2hop",
		`MATCH (u:User) WHERE u.id >= $lo AND u.id < $hi OPTIONAL MATCH (u)-[:KNOWS]->(:User)-[:KNOWS]->(f:User) WHERE f.age > $a RETURN u.id AS id, count(f) AS n ORDER BY id`,
		func(i, users int) map[string]any {
			w := users / 20
			return map[string]any{"lo": i * w, "hi": (i + 1) * w, "a": 30 + 5*i}
		}},
}

// setupAnalytics loads the social graph (without posts) into an embedded
// cypher.DB at WithParallelism(GOMAXPROCS), or into a stack at the same
// degree for the traced run.
func setupAnalytics(cfg config) (*instance, error) {
	s := newSocial(cfg.seed, cfg.scale)
	inst := &instance{flush: "in-memory", readOnly: true}
	var ref func() execer // the Parallelism-1 reference path
	if cfg.traced {
		st := memStack()
		if err := s.load(st, 0); err != nil {
			return nil, err
		}
		inst.probe = st
		inst.cache = st.eng.CacheStats
		inst.size = st.size
		inst.execs = []execer{st}
		ref = func() execer { return newStack(st.store, nil, 1) }
	} else {
		db := cypher.Open(cypher.WithParallelism(runtime.GOMAXPROCS(0)))
		if err := s.load(dbExec{db}, 0); err != nil {
			return nil, err
		}
		inst.cache = db.CacheStats
		inst.size = func() (int, int) { return db.NumNodes(), db.NumRels() }
		inst.execs = []execer{dbExec{db}}
		ref = func() execer { return dbExec{db.Snapshot(cypher.WithParallelism(1))} }
	}
	g := &analyticsGen{users: s.users, rng: rand.New(rand.NewSource(cfg.seed*1000 + 1)), deck: newDeck(len(analyticsClasses) * analyticsPool)}
	inst.gens = []opGen{g}
	inst.prepare = func() error { return g.captureRefs(ref()) }
	return inst, nil
}

// captureRefs runs every (class, pool slot) statement once through ref,
// which executes at Parallelism 1, and gives the generator the results.
func (g *analyticsGen) captureRefs(ref execer) error {
	for _, c := range analyticsClasses {
		var refs []string
		for i := 0; i < analyticsPool; i++ {
			rows, _, err := ref.exec(c.query, c.params(i, g.users))
			if err != nil {
				return fmt.Errorf("%s reference: %w", c.name, err)
			}
			refs = append(refs, canon(rows))
		}
		g.refs = append(g.refs, refs)
	}
	return nil
}

// analyticsGen deals every (class, pool slot) pair once per round, in
// random order, so every round runs the same statements.
type analyticsGen struct {
	users int
	rng   *rand.Rand
	deck  deck
	refs  [][]string // per class, per pool slot
}

func (g *analyticsGen) boundary() bool { return g.deck.dealt() }

func (g *analyticsGen) next() *op {
	card := g.deck.draw(g.rng)
	ci, pi := card/analyticsPool, card%analyticsPool
	c := analyticsClasses[ci]
	want := g.refs[ci][pi]
	return &op{class: c.name, query: c.query, params: c.params(pi, g.users),
		check: func(rows [][]value.Value, _ counts) error {
			if canon(rows) != want {
				return fmt.Errorf("result differs from the Parallelism-1 reference")
			}
			return nil
		}}
}
