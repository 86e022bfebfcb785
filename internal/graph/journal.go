package graph

import "repro/internal/value"

// Journal is an undo log giving statements all-or-nothing semantics: every
// mutation made while a journal is attached records its inverse, and
// Rollback replays the inverses in reverse order. This is how the engine
// guarantees that a failing statement (e.g. a revised-semantics SET
// conflict or strict DELETE error) leaves the graph untouched.
//
// The journal doubles as the change record of the commit pipeline: the
// entries describe exactly what a transaction touched, so the store
// derives the committed epoch's structural Delta from them (feed.go) —
// the copy-on-write commit path introduces no separate change tracking.
type Journal struct {
	g       *Graph
	entries []undoEntry
}

type undoEntry interface {
	undo(g *Graph)
}

// BeginJournal attaches a fresh journal to the graph and returns it.
// Only one journal may be active at a time; nesting panics, as it
// indicates an engine bug.
func (g *Graph) BeginJournal() *Journal {
	if g.journal != nil {
		panic("graph: nested journal")
	}
	j := &Journal{g: g}
	g.journal = j
	return j
}

func (j *Journal) record(e undoEntry) {
	j.entries = append(j.entries, e)
}

// Len reports the number of recorded mutations.
func (j *Journal) Len() int { return len(j.entries) }

// Mark returns a position in the journal to which RollbackTo can later
// rewind. Transactions use marks for statement-level rollback: a failed
// statement inside an open transaction is undone without disturbing the
// statements committed to the journal before it.
func (j *Journal) Mark() int { return len(j.entries) }

// RollbackTo undoes, in reverse order, every mutation recorded after
// the given mark, leaving the journal attached and the earlier entries
// intact.
func (j *Journal) RollbackTo(mark int) {
	for i := len(j.entries) - 1; i >= mark; i-- {
		j.entries[i].undo(j.g)
	}
	j.entries = j.entries[:mark]
}

// ValidateSince re-checks the no-dangling-relationships invariant in
// O(changes since mark) rather than O(graph), and reports exactly what
// Graph.Validate would: the lowest dangling relationship id, source
// before target, with the same message.
//
// It requires the invariant to have held when mark was taken. Then only
// a node removal recorded since mark can have stranded a relationship:
// CreateRel checks both endpoints, codec decode and WAL replay reject
// dangling endpoints, and undo (including RollbackTo, which also drops
// the undone entries) only restores an earlier state. Every removal
// under a journal records an undoDeleteNode, and removeNodeInternal
// keeps a removed node's non-empty adjacency rows, so the dangling
// relationships are exactly those still listed in the rows of removed
// nodes that remain absent.
func (j *Journal) ValidateSince(mark int) error {
	g := j.g
	var first *Rel
	for _, e := range j.entries[mark:] {
		d, ok := e.(undoDeleteNode)
		if !ok || g.HasNode(d.node.ID) {
			continue
		}
		for _, m := range [...]*idMap[*adjRow]{&g.outgoing, &g.incoming} {
			// Rows are sorted, so a row's lowest id is its first.
			if ids := adjIDs(m, d.node.ID); len(ids) > 0 && (first == nil || ids[0] < first.ID) {
				first = g.Rel(ids[0])
			}
		}
	}
	if first == nil {
		return nil
	}
	return g.checkEndpoints(first)
}

// Commit detaches the journal, keeping all mutations.
func (j *Journal) Commit() {
	j.g.journal = nil
	j.entries = nil
}

// Rollback detaches the journal and undoes all recorded mutations in
// reverse order, restoring the graph to its state at BeginJournal.
func (j *Journal) Rollback() {
	j.g.journal = nil
	for i := len(j.entries) - 1; i >= 0; i-- {
		j.entries[i].undo(j.g)
	}
	j.entries = nil
}

// Discard detaches the journal and abandons its entries without undoing
// them. The copy-on-write rollback path uses it: when a transaction's
// working graph is a structure-sharing clone, rolling back means
// throwing the clone away wholesale — replaying inverses onto a graph
// nobody will ever observe would be wasted work.
func (j *Journal) Discard() {
	j.g.journal = nil
	j.entries = nil
}

type undoCreateNode struct{ id NodeID }

func (u undoCreateNode) undo(g *Graph) {
	if n := g.Node(u.id); n != nil {
		g.removeNodeInternal(n)
	}
	g.outgoing.del(g.tag, int64(u.id))
	g.incoming.del(g.tag, int64(u.id))
}

type undoCreateRel struct{ id RelID }

func (u undoCreateRel) undo(g *Graph) {
	r := g.Rel(u.id)
	if r == nil {
		return
	}
	g.statsRel(r, -1)
	g.rels.del(g.tag, int64(u.id))
	g.adjRemove(&g.outgoing, r.Src, u.id)
	g.adjRemove(&g.incoming, r.Tgt, u.id)
}

type undoDeleteNode struct{ node *Node }

func (u undoDeleteNode) undo(g *Graph) { g.restoreNode(u.node) }

type undoDeleteRel struct{ rel *Rel }

func (u undoDeleteRel) undo(g *Graph) { g.restoreRel(u.rel) }

type undoSetNodeProp struct {
	id  NodeID
	key string
	old value.Value
	had bool
}

func (u undoSetNodeProp) undo(g *Graph) {
	n := g.mutableNode(u.id)
	if n == nil {
		return
	}
	cur, has := n.Props[u.key]
	g.indexPropWrite(n, u.key, cur, has, u.old, u.had)
	if u.had {
		n.Props[u.key] = u.old
	} else {
		delete(n.Props, u.key)
	}
}

type undoSetRelProp struct {
	id  RelID
	key string
	old value.Value
	had bool
}

func (u undoSetRelProp) undo(g *Graph) {
	r := g.mutableRel(u.id)
	if r == nil {
		return
	}
	if u.had {
		r.Props[u.key] = u.old
	} else {
		delete(r.Props, u.key)
	}
}

type undoAddLabel struct {
	id    NodeID
	label string
}

func (u undoAddLabel) undo(g *Graph) {
	n := g.mutableNode(u.id)
	if n == nil {
		return
	}
	g.statsLabel(u.id, u.label, -1)
	g.indexNodeLabel(n, u.label, false)
	delete(n.Labels, u.label)
	g.unindexLabel(u.label, u.id)
}

type undoRemoveLabel struct {
	id    NodeID
	label string
}

func (u undoRemoveLabel) undo(g *Graph) {
	n := g.mutableNode(u.id)
	if n == nil {
		return
	}
	n.Labels[u.label] = struct{}{}
	g.indexLabel(u.label, u.id)
	g.indexNodeLabel(n, u.label, true)
	g.statsLabel(u.id, u.label, +1)
}
