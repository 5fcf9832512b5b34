package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path P_n: 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

// Cycle returns the cycle C_n. It panics for n < 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle(%d): need n >= 3", n))
	}
	g := Path(n)
	g.AddEdge(NodeID(n-1), 0)
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return g
}

// Star returns the star K_{1,n-1} with node 0 as the center.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, NodeID(i))
	}
	return g
}

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.AddEdge(NodeID(i), NodeID(a+j))
		}
	}
	return g
}

// Grid returns the rows x cols grid graph; node (r,c) has ID r*cols+c.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols torus (grid with wraparound). Both
// dimensions must be at least 3 to keep the graph simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: Torus(%d,%d): need both >= 3", rows, cols))
	}
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, (c+1)%cols))
			g.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes.
func Hypercube(d int) *Graph {
	n := 1 << d
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << b)
			if v < u {
				g.AddEdge(NodeID(v), NodeID(u))
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random labeled tree on n nodes, built by
// decoding a random Prüfer sequence. For n <= 1 the tree has no edges.
func RandomTree(n int, rng *rand.Rand) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	if n == 2 {
		g.AddEdge(0, 1)
		return g
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, p := range prufer {
		degree[p]++
	}
	for _, p := range prufer {
		for v := 0; v < n; v++ {
			if degree[v] == 1 {
				g.AddEdge(NodeID(v), NodeID(p))
				degree[v]--
				degree[p]--
				break
			}
		}
	}
	u, w := -1, -1
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			if u == -1 {
				u = v
			} else {
				w = v
			}
		}
	}
	g.AddEdge(NodeID(u), NodeID(w))
	return g
}

// RandomGNP returns an Erdős–Rényi graph G(n,p): each of the n(n-1)/2
// possible edges is present independently with probability p.
func RandomGNP(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// RandomConnected returns a connected random graph on n nodes: a uniform
// random spanning tree plus every remaining edge independently with
// probability p. This is the workhorse topology for convergence sweeps,
// since the paper assumes the network stays connected.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := RandomTree(n, rng)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(NodeID(i), NodeID(j)) && rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// RandomSparseConnected returns a connected random graph on n nodes with
// expected average degree avgDeg, in O(n·avgDeg) time: a random
// attachment tree (each node i >= 1 links to a uniform earlier node)
// plus n·(avgDeg-2)/2 sampled extra edges. RandomConnected enumerates
// all n(n-1)/2 pairs and is quadratic; this is the million-node
// workhorse for the sharded executor's benchmarks, where the pair sweep
// would never finish. avgDeg below 2 yields just the tree. The rows,
// grown edge by edge, are compacted at the end into the layout a bulk
// build has.
func RandomSparseConnected(n int, avgDeg float64, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID(rng.Intn(i)))
	}
	extra := int(float64(n) * (avgDeg - 2) / 2)
	for e := 0; e < extra; {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v)
		e++
	}
	g.compact(0)
	return g
}

// RandomPermutation returns a uniformly random permutation of 0..n-1 as
// NodeIDs, for use with Graph.Relabel.
func RandomPermutation(n int, rng *rand.Rand) []NodeID {
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
