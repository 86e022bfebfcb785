// Package graph implements the property graph data model of the paper
// (Section 8): G = <N, R, src, tgt, iota, lambda, tau>, where N is a set of
// nodes, R a set of relationships, src/tgt assign endpoints, lambda assigns
// label sets to nodes, tau assigns a type to each relationship, and iota
// assigns property maps to nodes and relationships.
//
// The store enforces the model's single structural invariant: there are no
// dangling relationships — every relationship's source and target node
// exist (Section 2 of the paper). The legacy Cypher 9 execution mode
// deliberately suspends this invariant mid-statement (Section 4.2); the
// store supports that through the unchecked deletion entry points, and
// exposes Validate (whole graph) and Journal.ValidateSince (only what a
// journal removed) to re-check the invariant.
//
// The package also provides:
//   - deltas (ChangeSet) implementing the revised two-phase atomic update
//     semantics of Section 7 (collect changes, detect conflicts, apply);
//   - a journal for statement-level rollback;
//   - an isomorphism checker used to verify "equal up to id renaming"
//     determinism claims (Section 8);
//   - a transactional epoch store (store.go) whose writers commit in
//     O(changes) via the copy-on-write containers of cow.go, and whose
//     committed epochs carry a structural Delta for change-feed
//     consumers (feed.go).
package graph

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// NodeID identifies a node. IDs are assigned monotonically and never
// reused within a Graph lifetime.
type NodeID int64

// RelID identifies a relationship.
type RelID int64

// Node is a stored node: a label set and a property map.
type Node struct {
	ID     NodeID
	Labels map[string]struct{}
	Props  map[string]value.Value

	// owner tags the graph generation that may mutate this node in
	// place; other generations sharing it copy-on-write first (cow.go).
	owner uint64
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(label string) bool {
	_, ok := n.Labels[label]
	return ok
}

// SortedLabels returns the node's labels in sorted order.
func (n *Node) SortedLabels() []string {
	out := make([]string, 0, len(n.Labels))
	for l := range n.Labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// PropMap returns the node's properties as a value.Map (shallow copy).
func (n *Node) PropMap() value.Map {
	m := make(value.Map, len(n.Props))
	for k, v := range n.Props {
		m[k] = v
	}
	return m
}

// Rel is a stored relationship: exactly one type, one source, one target,
// and a property map.
type Rel struct {
	ID       RelID
	Type     string
	Src, Tgt NodeID
	Props    map[string]value.Value

	// owner is the copy-on-write generation tag, as on Node.
	owner uint64
}

// PropMap returns the relationship's properties as a value.Map (shallow copy).
func (r *Rel) PropMap() value.Map {
	m := make(value.Map, len(r.Props))
	for k, v := range r.Props {
		m[k] = v
	}
	return m
}

// Graph is an in-memory property graph. It is not safe for concurrent
// mutation; the database layer serializes statements. Its containers are
// the copy-on-write structures of cow.go, so a graph produced by
// cloneCOW shares unmodified shards with its parent and a mutation
// copies only the bucket it touches.
type Graph struct {
	// tag is this graph generation's ownership tag: shards, rows,
	// buckets and entities carrying a different tag are shared with
	// another epoch and must be copied before mutation.
	tag uint64

	nodes idMap[*Node]
	rels  idMap[*Rel]

	outgoing idMap[*adjRow]
	incoming idMap[*adjRow]
	byLabel  map[string]*labelSet

	nextNode NodeID
	nextRel  RelID

	// stats holds the incrementally maintained planner statistics
	// (stats.go); every mutation path below keeps it in sync with a
	// from-scratch recount.
	stats statsCounters
	// version counts structural mutations (nodes, relationships,
	// labels — everything the planner statistics reflect; property
	// writes excluded). The match planner caches plans against it.
	version int64

	// indexes holds the property indexes (index.go), maintained
	// incrementally by every mutation path; indexEpoch counts index
	// creations/drops so cached match plans invalidate on schema change.
	indexes    map[IndexKey]*propIndex
	indexEpoch int64

	journal *Journal // non-nil while a statement's undo journal is active
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		tag:     newCowTag(),
		byLabel: make(map[string]*labelSet),
	}
}

// Version reports the structural mutation counter: it changes whenever
// nodes, relationships or labels do (but not on property writes), so
// cached match plans can be invalidated cheaply.
func (g *Graph) Version() int64 { return g.version }

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.size() }

// NumRels reports the number of relationships.
func (g *Graph) NumRels() int { return g.rels.size() }

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id NodeID) *Node {
	n, _ := g.nodes.get(int64(id))
	return n
}

// Rel returns the relationship with the given id, or nil.
func (g *Graph) Rel(id RelID) *Rel {
	r, _ := g.rels.get(int64(id))
	return r
}

// HasNode reports whether a node with the given id exists.
func (g *Graph) HasNode(id NodeID) bool { _, ok := g.nodes.get(int64(id)); return ok }

// HasRel reports whether a relationship with the given id exists.
func (g *Graph) HasRel(id RelID) bool { _, ok := g.rels.get(int64(id)); return ok }

// NodeIDs returns all node ids in ascending order. The deterministic order
// is what makes legacy-mode scans reproducible for a given graph state.
func (g *Graph) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, g.nodes.size())
	g.nodes.each(func(id int64, _ *Node) {
		ids = append(ids, NodeID(id))
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RelIDs returns all relationship ids in ascending order.
func (g *Graph) RelIDs() []RelID {
	ids := make([]RelID, 0, g.rels.size())
	g.rels.each(func(id int64, _ *Rel) {
		ids = append(ids, RelID(id))
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NodeIDsByLabel returns the ids of nodes carrying the label, ascending.
func (g *Graph) NodeIDsByLabel(label string) []NodeID {
	set := g.byLabel[label]
	if set == nil {
		return nil
	}
	ids := make([]NodeID, 0, set.size())
	set.each(func(id int64, _ struct{}) {
		ids = append(ids, NodeID(id))
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Outgoing returns the ids of relationships whose source is the node,
// in ascending order. The returned slice is the store's own adjacency
// list — a read-only view that is invalidated by the next mutation of
// the graph; callers must not modify it or hold it across writes.
// (Adjacency lists are maintained sorted on insert: ids are monotonic,
// so creation appends in order, and deletion/restore preserve order.)
func (g *Graph) Outgoing(id NodeID) []RelID {
	return adjIDs(&g.outgoing, id)
}

// Incoming returns the ids of relationships whose target is the node,
// in ascending order, under the same read-only-view contract as
// Outgoing.
func (g *Graph) Incoming(id NodeID) []RelID {
	return adjIDs(&g.incoming, id)
}

// insertRelIDSorted inserts id into an ascending slice, keeping it
// sorted. Restores (rollback, codec decode) may reinstate a
// relationship with an id smaller than later-created survivors, so a
// plain append would break the sorted-adjacency invariant.
func insertRelIDSorted(ids []RelID, id RelID) []RelID {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// Degree reports the total number of relationships attached to the node
// (a self-loop counts twice: once outgoing, once incoming).
func (g *Graph) Degree(id NodeID) int {
	return len(g.Outgoing(id)) + len(g.Incoming(id))
}

// CreateNode adds a node with the given labels and properties and returns
// it. Properties mapped to null are not stored (iota(n,k)=null means
// "absent" in the formal model).
func (g *Graph) CreateNode(labels []string, props value.Map) *Node {
	g.version++
	g.nextNode++
	n := &Node{
		ID:     g.nextNode,
		Labels: make(map[string]struct{}, len(labels)),
		Props:  make(map[string]value.Value, len(props)),
		owner:  g.tag,
	}
	for _, l := range labels {
		n.Labels[l] = struct{}{}
	}
	for k, v := range props {
		if !value.IsNull(v) {
			n.Props[k] = v
		}
	}
	g.nodes.put(g.tag, int64(n.ID), n)
	for l := range n.Labels {
		g.indexLabel(l, n.ID)
	}
	g.indexNode(n, true)
	if g.journal != nil {
		g.journal.record(undoCreateNode{id: n.ID})
	}
	return n
}

// CreateRel adds a relationship from src to tgt with the given type and
// properties. It returns an error if either endpoint does not exist
// (no dangling relationships) or if the type is empty (every relationship
// has exactly one type; Section 2).
func (g *Graph) CreateRel(src, tgt NodeID, relType string, props value.Map) (*Rel, error) {
	if relType == "" {
		return nil, fmt.Errorf("graph: relationship must have a type")
	}
	if !g.HasNode(src) {
		return nil, fmt.Errorf("graph: source node %d does not exist", src)
	}
	if !g.HasNode(tgt) {
		return nil, fmt.Errorf("graph: target node %d does not exist", tgt)
	}
	g.nextRel++
	r := &Rel{
		ID:    g.nextRel,
		Type:  relType,
		Src:   src,
		Tgt:   tgt,
		Props: make(map[string]value.Value, len(props)),
		owner: g.tag,
	}
	for k, v := range props {
		if !value.IsNull(v) {
			r.Props[k] = v
		}
	}
	g.rels.put(g.tag, int64(r.ID), r)
	// A freshly created id exceeds every stored one, so appending keeps
	// the adjacency rows sorted.
	out := g.adjWritable(&g.outgoing, src)
	out.ids = append(out.ids, r.ID)
	in := g.adjWritable(&g.incoming, tgt)
	in.ids = append(in.ids, r.ID)
	g.statsRel(r, +1)
	if g.journal != nil {
		g.journal.record(undoCreateRel{id: r.ID})
	}
	return r, nil
}

// DeleteRel removes a relationship. Removing a missing relationship is a
// no-op (it may have been deleted earlier in the same statement).
func (g *Graph) DeleteRel(id RelID) {
	r, ok := g.rels.get(int64(id))
	if !ok {
		return
	}
	if g.journal != nil {
		g.journal.record(undoDeleteRel{rel: copyRel(r)})
	}
	g.statsRel(r, -1)
	g.rels.del(g.tag, int64(id))
	g.adjRemove(&g.outgoing, r.Src, id)
	g.adjRemove(&g.incoming, r.Tgt, id)
}

// DeleteNode removes a node, returning an error if relationships are still
// attached (the DELETE failure mode described in Section 3 of the paper).
func (g *Graph) DeleteNode(id NodeID) error {
	n, ok := g.nodes.get(int64(id))
	if !ok {
		return nil
	}
	if g.Degree(id) > 0 {
		return &DanglingError{Node: id, Attached: g.Degree(id)}
	}
	if g.journal != nil {
		g.journal.record(undoDeleteNode{node: copyNode(n)})
	}
	g.removeNodeInternal(n)
	return nil
}

// DeleteNodeUnchecked removes a node even if relationships are attached,
// leaving them dangling. This reproduces the non-atomic mid-statement
// state of legacy Cypher 9 DELETE (Section 4.2); Validate will fail until
// the dangling relationships are also removed.
func (g *Graph) DeleteNodeUnchecked(id NodeID) {
	n, ok := g.nodes.get(int64(id))
	if !ok {
		return
	}
	if g.journal != nil {
		g.journal.record(undoDeleteNode{node: copyNode(n)})
	}
	g.removeNodeInternal(n)
}

func (g *Graph) removeNodeInternal(n *Node) {
	g.version++
	// The node's labels stop contributing to the degree counters; any
	// relationships it leaves dangling (legacy unchecked deletion) keep
	// only their surviving endpoint's contribution.
	g.statsNodeRels(n, -1)
	g.indexNode(n, false)
	g.nodes.del(g.tag, int64(n.ID))
	for l := range n.Labels {
		g.unindexLabel(l, n.ID)
	}
	// Adjacency rows for the node are retained only if non-empty
	// (dangling rels keep referring to the removed node id).
	if len(adjIDs(&g.outgoing, n.ID)) == 0 {
		g.outgoing.del(g.tag, int64(n.ID))
	}
	if len(adjIDs(&g.incoming, n.ID)) == 0 {
		g.incoming.del(g.tag, int64(n.ID))
	}
}

// DetachDeleteNode removes a node along with all attached relationships.
func (g *Graph) DetachDeleteNode(id NodeID) {
	if !g.HasNode(id) {
		return
	}
	// Copy the adjacency lists before deleting: DeleteRel mutates them.
	for _, rid := range append([]RelID(nil), g.Outgoing(id)...) {
		g.DeleteRel(rid)
	}
	for _, rid := range append([]RelID(nil), g.Incoming(id)...) {
		g.DeleteRel(rid)
	}
	g.DeleteNodeUnchecked(id)
}

// SetNodeProp sets (or, when v is null, removes) a node property.
func (g *Graph) SetNodeProp(id NodeID, key string, v value.Value) error {
	n := g.mutableNode(id)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	old, had := n.Props[key]
	if g.journal != nil {
		g.journal.record(undoSetNodeProp{id: id, key: key, old: old, had: had})
	}
	if value.IsNull(v) {
		g.indexPropWrite(n, key, old, had, nil, false)
		delete(n.Props, key)
	} else {
		g.indexPropWrite(n, key, old, had, v, true)
		n.Props[key] = v
	}
	return nil
}

// SetRelProp sets (or, when v is null, removes) a relationship property.
func (g *Graph) SetRelProp(id RelID, key string, v value.Value) error {
	r := g.mutableRel(id)
	if r == nil {
		return fmt.Errorf("graph: relationship %d does not exist", id)
	}
	if g.journal != nil {
		old, had := r.Props[key]
		g.journal.record(undoSetRelProp{id: id, key: key, old: old, had: had})
	}
	if value.IsNull(v) {
		delete(r.Props, key)
	} else {
		r.Props[key] = v
	}
	return nil
}

// AddLabel adds a label to a node.
func (g *Graph) AddLabel(id NodeID, label string) error {
	n := g.mutableNode(id)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	if _, has := n.Labels[label]; has {
		return nil
	}
	if g.journal != nil {
		g.journal.record(undoAddLabel{id: id, label: label})
	}
	n.Labels[label] = struct{}{}
	g.indexLabel(label, id)
	g.indexNodeLabel(n, label, true)
	g.statsLabel(id, label, +1)
	return nil
}

// RemoveLabel removes a label from a node.
func (g *Graph) RemoveLabel(id NodeID, label string) error {
	n := g.mutableNode(id)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	if _, has := n.Labels[label]; !has {
		return nil
	}
	if g.journal != nil {
		g.journal.record(undoRemoveLabel{id: id, label: label})
	}
	g.statsLabel(id, label, -1)
	g.indexNodeLabel(n, label, false)
	delete(n.Labels, label)
	g.unindexLabel(label, id)
	return nil
}

func (g *Graph) indexLabel(label string, id NodeID) {
	set, ok := g.byLabel[label]
	if !ok {
		set = &labelSet{}
		g.byLabel[label] = set
	}
	set.put(g.tag, int64(id), struct{}{})
}

func (g *Graph) unindexLabel(label string, id NodeID) {
	if set, ok := g.byLabel[label]; ok {
		set.del(g.tag, int64(id))
		if set.size() == 0 {
			delete(g.byLabel, label)
		}
	}
}

func removeRelID(ids []RelID, id RelID) []RelID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// DanglingError reports a deletion that would leave (or has left)
// relationships without an endpoint.
type DanglingError struct {
	Node     NodeID
	Attached int
}

// Error implements error.
func (e *DanglingError) Error() string {
	return fmt.Sprintf("cannot delete node %d: %d relationship(s) still attached", e.Node, e.Attached)
}

// Validate checks the structural invariant that every relationship's
// endpoints exist, returning the first violation found: the lowest
// relationship id, its source checked before its target. It walks the
// whole graph; statement boundaries use the O(changes) equivalent,
// Journal.ValidateSince.
func (g *Graph) Validate() error {
	for _, id := range g.RelIDs() {
		if err := g.checkEndpoints(g.Rel(id)); err != nil {
			return err
		}
	}
	return nil
}

// checkEndpoints reports r's first missing endpoint, source before
// target, or nil when both exist.
func (g *Graph) checkEndpoints(r *Rel) error {
	if !g.HasNode(r.Src) {
		return fmt.Errorf("graph: relationship %d has dangling source %d", r.ID, r.Src)
	}
	if !g.HasNode(r.Tgt) {
		return fmt.Errorf("graph: relationship %d has dangling target %d", r.ID, r.Tgt)
	}
	return nil
}

// Clone returns a deep copy of the graph sharing no mutable state. Stored
// property values are immutable by convention (the evaluator never mutates
// a stored List/Map in place), so values themselves are shared. Contrast
// cloneCOW (cow.go), which shares structure and is what write
// transactions use; Clone remains the independent-database copy
// (DB.Snapshot, dialect switching) and the baseline the copy-on-write
// paths are property-tested against.
func (g *Graph) Clone() *Graph {
	ng := New()
	ng.nextNode = g.nextNode
	ng.nextRel = g.nextRel
	ng.version = g.version
	ng.indexEpoch = g.indexEpoch
	g.nodes.each(func(id int64, n *Node) {
		c := copyNode(n)
		c.owner = ng.tag
		ng.nodes.put(ng.tag, id, c)
	})
	g.rels.each(func(id int64, r *Rel) {
		c := copyRel(r)
		c.owner = ng.tag
		ng.rels.put(ng.tag, id, c)
	})
	g.outgoing.each(func(id int64, row *adjRow) {
		ng.outgoing.put(ng.tag, id, &adjRow{ids: append([]RelID(nil), row.ids...), owner: ng.tag})
	})
	g.incoming.each(func(id int64, row *adjRow) {
		ng.incoming.put(ng.tag, id, &adjRow{ids: append([]RelID(nil), row.ids...), owner: ng.tag})
	})
	for l, set := range g.byLabel {
		ns := &labelSet{}
		set.each(func(id int64, _ struct{}) {
			ns.put(ng.tag, id, struct{}{})
		})
		ng.byLabel[l] = ns
	}
	if len(g.indexes) > 0 {
		ng.indexes = make(map[IndexKey]*propIndex, len(g.indexes))
		for k, idx := range g.indexes {
			ng.indexes[k] = idx.cloneDeep(ng.tag)
		}
	}
	ng.stats = g.stats.clone()
	return ng
}

func copyNode(n *Node) *Node {
	c := &Node{
		ID:     n.ID,
		Labels: make(map[string]struct{}, len(n.Labels)),
		Props:  make(map[string]value.Value, len(n.Props)),
	}
	for l := range n.Labels {
		c.Labels[l] = struct{}{}
	}
	for k, v := range n.Props {
		c.Props[k] = v
	}
	return c
}

func copyRel(r *Rel) *Rel {
	c := &Rel{
		ID:    r.ID,
		Type:  r.Type,
		Src:   r.Src,
		Tgt:   r.Tgt,
		Props: make(map[string]value.Value, len(r.Props)),
	}
	for k, v := range r.Props {
		c.Props[k] = v
	}
	return c
}

// restoreNode reinstates a node with its original id (journal rollback).
// The node object becomes owned by this graph generation: journal
// captures are private copies, so no other epoch can hold it.
func (g *Graph) restoreNode(n *Node) {
	g.version++
	n.owner = g.tag
	g.nodes.put(g.tag, int64(n.ID), n)
	for l := range n.Labels {
		g.indexLabel(l, n.ID)
	}
	g.indexNode(n, true)
	// Attached relationships that survived (or were restored first)
	// regain this endpoint's label contribution.
	g.statsNodeRels(n, +1)
}

// restoreRel reinstates a relationship with its original id (journal
// rollback, codec decode). The insert keeps adjacency lists sorted:
// restored ids may be smaller than those of surviving relationships.
func (g *Graph) restoreRel(r *Rel) {
	r.owner = g.tag
	g.rels.put(g.tag, int64(r.ID), r)
	out := g.adjWritable(&g.outgoing, r.Src)
	out.ids = insertRelIDSorted(out.ids, r.ID)
	in := g.adjWritable(&g.incoming, r.Tgt)
	in.ids = insertRelIDSorted(in.ids, r.ID)
	g.statsRel(r, +1)
}
