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
	"sort"
	"sync"
)

// NodeID identifies a node. IDs are dense: a Graph with n nodes uses IDs
// 0..n-1. Protocols compare IDs as integers, matching the paper's
// assumption that "each node is assigned a unique ID". IDs are 32-bit,
// so a graph holds at most math.MaxInt32 nodes and a CSR row costs four
// bytes per neighbor.
type NodeID int32

// Graph is an undirected simple graph on a fixed node set. The zero value
// is an empty graph with no nodes; use New to allocate one with n nodes.
//
// Neighbor sets are kept sorted so protocol rules that break ties by
// minimum ID (SMM rule R2) can scan deterministically, and so tests are
// reproducible.
type Graph struct {
	adj [][]NodeID // adj[v] sorted ascending
	m   int        // number of edges
	// version counts edge mutations. Executors cache derived structures
	// (the CSR adjacency snapshot, frontier validity) keyed on it, so a
	// topology change made behind their back — by the fault engine, by
	// mobility churn, by a test poking the graph directly — is detected
	// at the next round without any callback wiring.
	version uint64
	// last is the edge of the most recent successful AddEdge (lastAdd) or
	// RemoveEdge: the edit that took the graph from version-1 to version,
	// which Snapshot replays onto a snapshot exactly one version behind.
	last    Edge
	lastAdd bool

	// snap caches the CSR adjacency snapshot served by Snapshot, keyed on
	// version, so every executor and run over one topology shares a single
	// snapshot instead of each rebuilding it.
	snap   *CSR
	snapMu sync.Mutex
}

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
	return &Graph{adj: make([][]NodeID, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Version returns the edge-mutation counter: it increases on every
// successful AddEdge or RemoveEdge and never otherwise. Equal versions
// of the same Graph value imply an identical edge set, so callers may
// cache adjacency-derived structures against it.
func (g *Graph) Version() uint64 { return g.version }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// owned by the graph and must not be modified; callers that mutate must
// copy first.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[v]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	return containsSorted(g.adj[u], v)
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
	if containsSorted(g.adj[u], v) {
		return false
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
	g.version++
	g.last, g.lastAdd = NewEdge(u, v), true
	return true
}

// RemoveEdge deletes the undirected edge {u,v}. It reports whether the
// edge was present.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if u == v || !containsSorted(g.adj[u], v) {
		return false
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.m--
	g.version++
	g.last, g.lastAdd = NewEdge(u, v), false
	return true
}

// Edges returns all edges as ordered pairs (u < v), sorted
// lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.adj {
		for _, v := range g.adj[u] {
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

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]NodeID, len(g.adj)), m: g.m}
	for v, ns := range g.adj {
		c.adj[v] = append([]NodeID(nil), ns...)
	}
	return c
}

// Equal reports whether g and h have identical node sets and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.m != h.m {
		return false
	}
	for v := range g.adj {
		a, b := g.adj[v], h.adj[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
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
	h := New(n)
	for u := 0; u < n; u++ {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				h.AddEdge(perm[u], perm[v])
			}
		}
	}
	return h
}

// String renders a compact description such as "graph(n=4, m=3)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.m)
}

func (g *Graph) check(v NodeID) {
	if v < 0 || int(v) >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.adj)))
	}
}

func containsSorted(s []NodeID, v NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
