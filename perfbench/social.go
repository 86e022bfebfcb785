package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/value"
)

// social is the generated social graph shared by oltp-wire and
// analytics: :User nodes with id, name, age, city and score, :KNOWS
// relationships between them, and a fixed number of :Post nodes per
// client. The generator keeps the adjacency so reads can be checked.
type social struct {
	users int
	age   []int64
	city  []int64
	out   [][]int32 // KNOWS targets per user, in generation order
	since [][]int64
	posts int // :Post nodes each client owns at the start
}

const (
	baseUsers     = 20000
	knowsPerUser  = 3
	socialCities  = 50
	postsPerOwner = 50
	loadChunk     = 2000
)

func scaled(n int, scale float64) int {
	m := int(float64(n) * scale)
	if m < 10 {
		m = 10
	}
	return m
}

func newSocial(seed int64, scale float64) *social {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(baseUsers, scale)
	s := &social{users: n, age: make([]int64, n), city: make([]int64, n),
		out: make([][]int32, n), since: make([][]int64, n),
		posts: scaled(postsPerOwner, scale)}
	for i := 0; i < n; i++ {
		s.age[i] = 18 + rng.Int63n(63)
		s.city[i] = rng.Int63n(socialCities)
	}
	for r := 0; r < knowsPerUser*n; r++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++ // no self-loops
		}
		s.out[a] = append(s.out[a], int32(b))
		s.since[a] = append(s.since[a], 2000+rng.Int63n(25))
	}
	return s
}

func userName(id int) string  { return fmt.Sprintf("user-%d", id) }
func cityName(c int64) string { return fmt.Sprintf("city-%d", c) }

// postID is the id of a client's seq-th post; clients never share ids.
func postID(client int, seq int64) int64 { return int64(client)<<32 | seq }

func (s *social) rels() int {
	n := 0
	for _, o := range s.out {
		n += len(o)
	}
	return n
}

// load creates the graph through ex, in chunks of loadChunk records
// driven by UNWIND over a list parameter, with posts for clients owners.
func (s *social) load(ex execer, owners int) error {
	for _, q := range []string{"CREATE INDEX ON :User(id)", "CREATE INDEX ON :Post(id)"} {
		if _, _, err := ex.exec(q, nil); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	var rows []any
	flush := func(q string) error {
		if len(rows) == 0 {
			return nil
		}
		_, _, err := ex.exec(q, map[string]any{"rows": rows})
		rows = rows[:0]
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		return nil
	}
	const users = `UNWIND $rows AS r CREATE (:User {id: r.id, name: r.name, age: r.age, city: r.city, score: 0})`
	for i := 0; i < s.users; i++ {
		rows = append(rows, map[string]any{"id": i, "name": userName(i), "age": s.age[i], "city": cityName(s.city[i])})
		if len(rows) == loadChunk {
			if err := flush(users); err != nil {
				return err
			}
		}
	}
	if err := flush(users); err != nil {
		return err
	}
	const knows = `UNWIND $rows AS r MATCH (a:User {id: r.a}), (b:User {id: r.b}) CREATE (a)-[:KNOWS {since: r.s}]->(b)`
	for a, outs := range s.out {
		for j, b := range outs {
			rows = append(rows, map[string]any{"a": a, "b": int(b), "s": s.since[a][j]})
			if len(rows) == loadChunk {
				if err := flush(knows); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(knows); err != nil {
		return err
	}
	const posts = `UNWIND $rows AS r MATCH (u:User {id: r.u}) CREATE (u)-[:POSTED]->(:Post {id: r.id, text: r.t})`
	for c := 0; c < owners; c++ {
		for seq := 0; seq < s.posts; seq++ {
			rows = append(rows, map[string]any{"u": postOwner(s.users, c, int64(seq)), "id": postID(c, int64(seq)), "t": "seed post"})
		}
	}
	return flush(posts)
}

func postOwner(users, client int, seq int64) int {
	return int((int64(client)*7919 + seq*104729) % int64(users))
}

// twoHop returns the number of distinct users reachable from u over two
// KNOWS hops, and the number of such paths.
func (s *social) twoHop(u int) (distinct, paths int) {
	seen := map[int32]bool{}
	for _, v := range s.out[u] {
		for _, w := range s.out[v] {
			seen[w] = true
			paths++
		}
	}
	return len(seen), paths
}

// canon renders rows bit-exactly: floats by their IEEE bits, so two
// results compare equal only when every value is identical.
func canon(rows [][]value.Value) string {
	var b []byte
	for _, r := range rows {
		for _, v := range r {
			b = appendCanon(b, v)
			b = append(b, 0x1f)
		}
		b = append(b, '\n')
	}
	return string(b)
}

func appendCanon(b []byte, v value.Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "nil"...)
	case value.Float:
		return fmt.Appendf(b, "f%016x", math.Float64bits(float64(x)))
	case value.List:
		b = append(b, '[')
		for _, e := range x {
			b = appendCanon(b, e)
			b = append(b, ',')
		}
		return append(b, ']')
	case value.Map:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, '{')
		for _, k := range keys {
			b = append(b, k...)
			b = append(b, ':')
			b = appendCanon(b, x[k])
			b = append(b, ',')
		}
		return append(b, '}')
	default:
		return fmt.Appendf(b, "%d:%s", v.Kind(), v.String())
	}
}
