// Package graph provides the topology substrate for the self-stabilizing
// protocol simulators: an undirected graph over a fixed node set, the
// generators used by the experiments (paths, cycles, random, geometric
// unit-disk), structural analysis (connectivity, diameter, degree
// statistics), and mutation primitives modeling ad hoc link churn.
//
// Nodes are identified by dense integer IDs 0..n-1. The paper assumes every
// node carries a unique ID and that protocols may compare IDs; the dense
// integer space keeps the simulators allocation-free while still letting
// experiments permute the order relation by relabeling (see Relabel).
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node. IDs are dense: a Graph with n nodes uses IDs
// 0..n-1. Protocols compare IDs as integers, matching the paper's
// assumption that "each node is assigned a unique ID". IDs are 32-bit,
// so a graph holds at most math.MaxInt32 nodes and a row costs four
// bytes per neighbor.
type NodeID int32

// Graph is an undirected simple graph on a fixed node set. The zero value
// is an empty graph with no nodes; use New to allocate one with n nodes.
//
// Neighbor sets are kept sorted so protocol rules that break ties by
// minimum ID (SMM rule R2) can scan deterministically, and so tests are
// reproducible.
//
// The adjacency lives in one pointer-free row store that every executor
// reads directly: all neighbor lists share one arena of NodeIDs, and
// rows[v] locates v's list in it. Edits go to both rows in place; a row
// that outgrows its room moves to the arena tail with twice the room,
// leaving dead slots behind that a later relocation reclaims, once they
// pass 1/deadFraction of the store, by compacting. FromEdges (under
// UnitDiskGrid and Relabel) and compaction lay the rows out back to
// back in ID order with no free room, so a node-order scan reads the
// arena in order.
type Graph struct {
	rows  []row
	arena []NodeID
	dead  int // arena slots no row owns, left behind by relocations
	m     int // number of edges
	// version counts edge mutations. Executors key derived state (the
	// frontier's validity) on it, so a topology change made behind their
	// back — by the fault engine, by mobility churn, by a test poking the
	// graph directly — is detected at the next round without any
	// callback wiring.
	version uint64
}

// row locates one neighbor list: arena[start:start+len] holds it in
// ascending order, and arena[start+len:start+cap] is its own free room.
// Twelve bytes, so a row's three fields share one cache line.
type row struct {
	start, len, cap int32
}

// deadFraction bounds the dead space: a relocation compacts the arena
// first once dead slots exceed 1/deadFraction of the store.
const deadFraction = 4

// minRoom is the room a row gets on its first relocation.
const minRoom = 4

// New returns an empty graph (no edges) on n nodes with IDs 0..n-1.
// It panics if n is negative or exceeds math.MaxInt32, the largest
// count whose IDs fit a NodeID; callers decoding an untrusted count
// check it first (see ReadEdgeList).
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New(%d): negative node count", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: New(%d): node count exceeds the 32-bit ID space", n))
	}
	return &Graph{rows: make([]row, n)}
}

// FromEdges returns the graph on n nodes with the given edges, laying
// out each row once — back to back in ID order, without free room —
// instead of inserting edge by edge. Endpoints may come in either order
// and an edge listed more than once is kept once; a self-loop or an
// out-of-range endpoint panics, as in AddEdge.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.check(e.U)
		g.check(e.V)
		if e.U == e.V {
			panic(fmt.Sprintf("graph: FromEdges: self-loop at %d", e.U))
		}
		g.rows[e.U].cap++
		g.rows[e.V].cap++
	}
	total := 0
	for v := range g.rows {
		g.rows[v].start = int32(total)
		total += int(g.rows[v].cap)
	}
	checkArena(total)
	g.arena = make([]NodeID, total)
	put := func(v, w NodeID) {
		r := &g.rows[v]
		g.arena[r.start+r.len] = w
		r.len++
	}
	for _, e := range edges {
		put(e.U, e.V)
		put(e.V, e.U)
	}
	for v := range g.rows {
		r := &g.rows[v]
		nb := g.arena[r.start : r.start+r.len]
		slices.Sort(nb)
		r.len = int32(len(slices.Compact(nb)))
		g.m += int(r.len)
	}
	g.m /= 2
	return g
}

// checkArena panics when an arena of size slots would no longer be
// addressable by the rows' 32-bit offsets.
func checkArena(size int) {
	if size > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d adjacency entries exceed the 32-bit row store", size))
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rows) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Version returns the edge-mutation counter: it increases on every
// successful AddEdge or RemoveEdge and when UnmarshalJSON replaces the
// edge set, and never otherwise. Equal versions of the same Graph value
// imply an identical edge set, so callers may cache adjacency-derived
// state against it.
func (g *Graph) Version() uint64 { return g.version }

// Neighbors returns the sorted neighbor list of v: a view into the row
// store, capped at its length so an append by the caller copies instead
// of writing into the row's free room. The slice is owned by the graph
// and must not be modified; an edit at v shifts it in place, so callers
// that mutate while iterating must copy first. Batch kernels call it on
// the hot path.
//
//selfstab:noalloc
func (g *Graph) Neighbors(v NodeID) []NodeID {
	r := g.rows[v]
	lo, hi := int(r.start), int(r.start)+int(r.len)
	return g.arena[lo:hi:hi]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int { return int(g.rows[v].len) }

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	_, ok := find(g.Neighbors(u), v)
	return ok
}

// AddEdge inserts the undirected edge {u,v}. It reports whether the edge
// was newly added (false if it already existed). Self-loops are rejected
// with a panic since the paper's network model has none.
func (g *Graph) AddEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d): self-loop", u, v))
	}
	i, ok := find(g.Neighbors(u), v)
	if ok {
		return false
	}
	g.insert(u, i, v)
	j, _ := find(g.Neighbors(v), u)
	g.insert(v, j, u)
	g.m++
	g.version++
	return true
}

// RemoveEdge deletes the undirected edge {u,v}. It reports whether the
// edge was present.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	i, ok := find(g.Neighbors(u), v)
	if !ok {
		return false
	}
	g.delete(u, i)
	j, _ := find(g.Neighbors(v), u)
	g.delete(v, j)
	g.m--
	g.version++
	return true
}

// insert puts x at position i of v's row, relocating the row first when
// it has no free room left.
func (g *Graph) insert(v NodeID, i int, x NodeID) {
	if r := g.rows[v]; r.len == r.cap {
		g.relocate(v)
	}
	r := &g.rows[v]
	s := g.arena[r.start : r.start+r.len+1]
	copy(s[i+1:], s[i:])
	s[i] = x
	r.len++
}

// delete removes position i of v's row; the freed slot stays the row's.
func (g *Graph) delete(v NodeID, i int) {
	r := &g.rows[v]
	s := g.arena[r.start : r.start+r.len]
	copy(s[i:], s[i+1:])
	r.len--
}

// relocate moves v's full row to the arena tail with twice its room
// (minRoom for an empty one), compacting first when dead slots have
// passed 1/deadFraction of the store — arena and rows, since a
// compaction walks both. The old slots turn dead.
func (g *Graph) relocate(v NodeID) {
	room := max(2*int(g.rows[v].cap), minRoom)
	if g.dead*deadFraction > len(g.arena)+len(g.rows) {
		g.compact(room)
	}
	r := &g.rows[v]
	end := len(g.arena)
	checkArena(end + room)
	g.arena = append(g.arena, make([]NodeID, room)...)
	copy(g.arena[end:], g.arena[r.start:r.start+r.len])
	g.dead += int(r.cap)
	r.start, r.cap = int32(end), int32(room)
}

// compact lays the rows out again in a fresh arena the way a bulk build
// does — back to back in ID order, without free room — so executors
// walking nodes in ID order also walk the arena in order. extra
// reserves capacity for the relocation that triggered it.
func (g *Graph) compact(extra int) {
	live := 0 // not 2m: AddEdge may compact between its two inserts
	for _, r := range g.rows {
		live += int(r.len)
	}
	arena := make([]NodeID, live, live+extra)
	off := int32(0)
	for v := range g.rows {
		r := &g.rows[v]
		copy(arena[off:], g.arena[r.start:r.start+r.len])
		r.start, r.cap = off, r.len
		off += r.len
	}
	g.arena, g.dead = arena, 0
}

// Edges returns all edges as ordered pairs (u < v), sorted
// lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.rows {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				es = append(es, Edge{NodeID(u), v})
			}
		}
	}
	return es
}

// Edge is an undirected edge. Constructors normalize so U < V.
type Edge struct {
	U, V NodeID
}

// NewEdge returns the normalized edge with U < V. It panics on self-loops.
func NewEdge(u, v NodeID) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: NewEdge(%d,%d): self-loop", u, v))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// String renders the edge as "{u,v}".
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Clone returns a deep copy of g: the row store's arrays, copied.
func (g *Graph) Clone() *Graph {
	return &Graph{rows: slices.Clone(g.rows), arena: slices.Clone(g.arena), dead: g.dead, m: g.m}
}

// Equal reports whether g and h have identical node sets and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.m != h.m {
		return false
	}
	for v := range g.rows {
		if !slices.Equal(g.Neighbors(NodeID(v)), h.Neighbors(NodeID(v))) {
			return false
		}
	}
	return true
}

// Relabel returns a new graph in which node v of g becomes perm[v]. perm
// must be a permutation of 0..n-1; Relabel panics otherwise. Relabeling
// changes the ID order relation protocols observe, which is how the
// experiments construct adversarial ID placements (E6).
func (g *Graph) Relabel(perm []NodeID) *Graph {
	n := g.N()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: Relabel: perm has %d entries for %d nodes", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			panic("graph: Relabel: not a permutation")
		}
		seen[p] = true
	}
	es := g.Edges()
	for i, e := range es {
		es[i] = Edge{perm[e.U], perm[e.V]}
	}
	return FromEdges(n, es)
}

// String renders a compact description such as "graph(n=4, m=3)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.m)
}

func (g *Graph) check(v NodeID) {
	if v < 0 || int(v) >= len(g.rows) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.rows)))
	}
}

// find returns the position of x in the ascending row, or where it
// would be inserted, and whether x is there. It scans linearly: rows of
// the bounded-degree ad hoc topologies are short, and an edit pays
// O(degree) for its copy anyway.
func find(row []NodeID, x NodeID) (int, bool) {
	for i, w := range row {
		if w >= x {
			return i, w == x
		}
	}
	return len(row), false
}
