package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/value"
)

// setupOLTP loads the social graph into an in-memory cypher.DB, serves it
// with internal/server on loopback (cypherd's default without -data)
// and dials one cypherclient connection per client. The traced run also
// gives the layer probes an in-memory stack that copies the served
// graph before the traced half.
func setupOLTP(cfg config) (*instance, error) {
	s := newSocial(cfg.seed, cfg.scale)
	db := cypher.Open()
	if err := s.load(dbExec{db}, cfg.clients); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Options{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	inst := &instance{wire: true, flush: "in-memory", cache: db.CacheStats,
		size: func() (int, int) { return db.NumNodes(), db.NumRels() }}
	var conns []*cypherclient.Conn
	inst.closeFn = func() error {
		var errs []error
		for _, c := range conns {
			errs = append(errs, c.Close())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, srv.Shutdown(ctx), <-served)
		return errors.Join(errs...)
	}
	for i := 0; i < cfg.clients; i++ {
		c, err := cypherclient.Dial(ln.Addr().String())
		if err != nil {
			inst.close()
			return nil, err
		}
		conns = append(conns, c)
		g := &oltpGen{s: s, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i) + 1)), deck: newDeck(100), client: i, seq: int64(s.posts)}
		for seq := 0; seq < s.posts; seq++ {
			g.posts = append(g.posts, postID(i, int64(seq)))
		}
		inst.gens = append(inst.gens, g)
		inst.execs = append(inst.execs, connExec{c})
	}
	gens := inst.gens
	inst.final = func() error {
		want := 0
		for _, g := range gens {
			want += len(g.(*oltpGen).posts)
		}
		checks := []countCheck{
			{"MATCH (u:User) RETURN count(u)", int64(s.users)},
			{"MATCH (:User)-[k:KNOWS]->(:User) RETURN count(k)", int64(s.rels())},
			{"MATCH (p:Post) RETURN count(p)", int64(want)},
		}
		err := expectCounts(dbExec{db}, checks)
		if inst.probe != nil {
			err = errors.Join(err, expectCounts(inst.probe, checks))
		}
		return err
	}
	inst.syncProbe = func() error {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return err
		}
		g, err := graph.ReadJSON(&buf)
		if err != nil {
			return err
		}
		inst.probe = newStack(graph.NewStore(g), nil, 0)
		return nil
	}
	return inst, nil
}

// oltpGen is one wire client's mix: 50% parameterised point lookups,
// 10% point lookups with the id inlined, 30% 1-hop reads, 5% 2-hop
// aggregates and 5% writes. Writes cycle through creating a post,
// setting a user property and deleting the client's oldest post, so the
// client holds its initial number of posts plus at most one.
type oltpGen struct {
	s      *social
	rng    *rand.Rand
	deck   deck
	client int
	posts  []int64 // own post ids, oldest first
	seq    int64
	writes int
}

const (
	qPoint  = `MATCH (u:User {id: $id}) RETURN u.name AS name, u.age AS age`
	qHop1   = `MATCH (u:User {id: $id})-[:KNOWS]->(f:User) RETURN f.id AS id, f.name AS name`
	qHop2   = `MATCH (u:User {id: $id})-[:KNOWS]->(:User)-[:KNOWS]->(f:User) RETURN count(DISTINCT f) AS n, count(*) AS paths`
	qPost   = `MATCH (u:User {id: $uid}) CREATE (u)-[:POSTED]->(:Post {id: $pid, text: $text})`
	qScore  = `MATCH (u:User {id: $id}) SET u.score = $score`
	qUnpost = `MATCH (p:Post {id: $pid}) DETACH DELETE p`
)

func (g *oltpGen) next() *op {
	r := g.deck.draw(g.rng)
	id := g.rng.Intn(g.s.users)
	switch {
	case r < 50:
		return g.point("point", qPoint, map[string]any{"id": id}, id)
	case r < 60:
		return g.point("point_literal", fmt.Sprintf(`MATCH (u:User {id: %d}) RETURN u.name AS name, u.age AS age`, id), nil, id)
	case r < 90:
		want := len(g.s.out[id])
		return &op{class: "hop1", query: qHop1, params: map[string]any{"id": id},
			check: func(rows [][]value.Value, _ counts) error {
				if len(rows) != want {
					return fmt.Errorf("user %d: %d friends, want %d", id, len(rows), want)
				}
				return nil
			}}
	case r < 95:
		n, paths := g.s.twoHop(id)
		return &op{class: "hop2", query: qHop2, params: map[string]any{"id": id},
			check: func(rows [][]value.Value, _ counts) error {
				return expectRow(rows, value.Int(n), value.Int(paths))
			}}
	}
	g.writes++
	switch g.writes % 3 {
	case 1:
		pid := postID(g.client, g.seq)
		g.seq++
		g.posts = append(g.posts, pid)
		return &op{class: "post", write: true, query: qPost,
			params: map[string]any{"uid": id, "pid": pid, "text": fmt.Sprintf("post %d by client %d", g.seq, g.client)},
			check:  expectUpdates(counts{nodesCreated: 1, relsCreated: 1})}
	case 2:
		return &op{class: "score", write: true, query: qScore,
			params: map[string]any{"id": id, "score": g.rng.Intn(1000)},
			check:  expectUpdates(counts{propsSet: 1})}
	default:
		pid := g.posts[0]
		g.posts = g.posts[1:]
		return &op{class: "unpost", write: true, query: qUnpost, params: map[string]any{"pid": pid},
			check: expectUpdates(counts{nodesDeleted: 1, relsDeleted: 1})}
	}
}

func (g *oltpGen) boundary() bool { return g.deck.dealt() }

// point checks that a point read returns the generator's name and age.
func (g *oltpGen) point(class, q string, params map[string]any, id int) *op {
	name, age := value.String(userName(id)), value.Int(g.s.age[id])
	return &op{class: class, query: q, params: params,
		check: func(rows [][]value.Value, _ counts) error { return expectRow(rows, name, age) }}
}

// expectRow checks a single-row result value by value.
func expectRow(rows [][]value.Value, want ...value.Value) error {
	if len(rows) != 1 || len(rows[0]) != len(want) {
		return fmt.Errorf("got %d rows, want 1 row of %d values", len(rows), len(want))
	}
	for i, w := range want {
		if string(appendCanon(nil, rows[0][i])) != string(appendCanon(nil, w)) {
			return fmt.Errorf("column %d = %v, want %v", i, rows[0][i], w)
		}
	}
	return nil
}

func expectUpdates(want counts) func([][]value.Value, counts) error {
	return func(_ [][]value.Value, got counts) error {
		if got != want {
			return fmt.Errorf("update counts %+v, want %+v", got, want)
		}
		return nil
	}
}

type countCheck struct {
	query string
	want  int64
}

// expectCounts runs single-value count queries and compares each with
// the generator's accounting.
func expectCounts(ex execer, checks []countCheck) error {
	for _, c := range checks {
		rows, _, err := ex.exec(c.query, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c.query, err)
		}
		if err := expectRow(rows, value.Int(c.want)); err != nil {
			return fmt.Errorf("%s: %w", c.query, err)
		}
	}
	return nil
}
