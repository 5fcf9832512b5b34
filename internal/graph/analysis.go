package graph

import "fmt"

// IsConnected reports whether g is connected. The empty graph and the
// single-node graph are considered connected.
func IsConnected(g *Graph) bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	return len(bfsOrder(g, 0)) == n
}

// Components returns the connected components of g, each as a sorted slice
// of node IDs; components are ordered by their smallest member.
func Components(g *Graph) [][]NodeID {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]NodeID
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		comp := bfsOrder(g, NodeID(v))
		for _, u := range comp {
			seen[u] = true
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// BFSDistances returns the hop distance from src to every node; -1 marks
// unreachable nodes.
func BFSDistances(g *Graph, src NodeID) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Diameter returns the largest hop distance between any two nodes, or -1
// if g is disconnected or empty.
func Diameter(g *Graph) int {
	n := g.N()
	if n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < n; v++ {
		for _, d := range BFSDistances(g, NodeID(v)) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// DegreeStats summarizes the degree sequence of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees returns the degree statistics of g. For the empty graph all
// fields are zero.
func Degrees(g *Graph) DegreeStats {
	n := g.N()
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	total := 0
	for v := 0; v < n; v++ {
		d := g.Degree(NodeID(v))
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(n)
	return st
}

// IsCutEdge reports whether removing {u,v} disconnects the component
// containing u and v. It panics if the edge is absent, since asking about
// a phantom edge is always a caller bug.
func IsCutEdge(g *Graph, u, v NodeID) bool {
	if !g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: IsCutEdge(%d,%d): edge not present", u, v))
	}
	g.RemoveEdge(u, v)
	reach := bfsOrder(g, u)
	g.AddEdge(u, v)
	for _, w := range reach {
		if w == v {
			return false
		}
	}
	return true
}

// Validate checks internal invariants and returns an error describing
// the first violation: every row lies inside the arena within its own
// room, no two rows overlap, the dead-slot count matches the arena,
// neighbor lists are strictly ascending, in range, free of self-loops
// and symmetric, and the edge count matches them. It is used by tests
// and by fuzz-style churn harnesses.
func Validate(g *Graph) error {
	n := g.N()
	owned := make([]bool, len(g.arena))
	room := 0
	for v, r := range g.rows {
		if r.start < 0 || r.len < 0 || r.len > r.cap || int(r.start)+int(r.cap) > len(g.arena) {
			return fmt.Errorf("graph: row of %d (start %d, len %d, cap %d) outside arena of %d", v, r.start, r.len, r.cap, len(g.arena))
		}
		for i := r.start; i < r.start+r.cap; i++ {
			if owned[i] {
				return fmt.Errorf("graph: row of %d overlaps another row at slot %d", v, i)
			}
			owned[i] = true
		}
		room += int(r.cap)
	}
	if g.dead != len(g.arena)-room {
		return fmt.Errorf("graph: %d dead slots recorded, arena of %d holds %d", g.dead, len(g.arena), len(g.arena)-room)
	}
	count := 0
	for v := 0; v < n; v++ {
		ns := g.Neighbors(NodeID(v))
		for i, u := range ns {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if u == NodeID(v) {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if _, ok := find(g.Neighbors(u), NodeID(v)); !ok {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, u)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency total %d", g.m, count)
	}
	return nil
}

func bfsOrder(g *Graph, src NodeID) []NodeID {
	seen := make([]bool, g.N())
	seen[src] = true
	order := []NodeID{src}
	for i := 0; i < len(order); i++ {
		for _, u := range g.Neighbors(order[i]) {
			if !seen[u] {
				seen[u] = true
				order = append(order, u)
			}
		}
	}
	return order
}

func sortNodeIDs(s []NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
