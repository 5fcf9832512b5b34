package graph

import (
	"fmt"
	"math"
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

// Point is a position in the unit square used by geometric graphs.
type Point struct {
	X, Y float64
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// RandomPoints returns n uniform points in the unit square.
func RandomPoints(n int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	return pts
}

// UnitDisk returns the unit-disk graph of pts with communication radius r:
// nodes i and j are adjacent iff their distance is at most r. This is the
// standard abstraction of an ad hoc radio network.
func UnitDisk(pts []Point, r float64) *Graph {
	g := New(len(pts))
	r2 := r * r
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) <= r2 {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// RandomUnitDisk places n uniform points in the unit square and grows the
// radius from r0 until the unit-disk graph is connected, returning the
// graph and the point set. It panics only if n <= 0.
func RandomUnitDisk(n int, r0 float64, rng *rand.Rand) (*Graph, []Point) {
	if n <= 0 {
		panic(fmt.Sprintf("graph: RandomUnitDisk(%d): need n > 0", n))
	}
	pts := RandomPoints(n, rng)
	r := r0
	for {
		g := UnitDisk(pts, r)
		if IsConnected(g) {
			return g, pts
		}
		r *= 1.25
	}
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

// UnitDiskGrid returns exactly the graph UnitDisk(pts, r) — same nodes,
// same edges — in O(n·deg) expected time instead of O(n²). It buckets
// the points by counting sort into a grid of square cells of side at
// least r, so every pair within distance r lies in the same or adjacent
// cells and each point tests only its 3x3 cell neighborhood. The side
// is also at least 1/√n, which keeps the grid at O(n) cells however
// small r is. The tests run cell by cell over a copy of the points in
// cell order, so they read memory in order, and FromEdges builds each
// row once from the pairs found. It is the million-node unit-disk
// generator; the unit tests pin its equality with the quadratic
// definition.
func UnitDiskGrid(pts []Point, r float64) *Graph {
	n := len(pts)
	if n == 0 || !(r > 0) {
		return New(n)
	}
	side := math.Max(r, 1/math.Sqrt(float64(n)))
	cols := int(1/side) + 1
	coord := func(x float64) int {
		c := x / side
		switch {
		case !(c > 0):
			return 0
		case c >= float64(cols-1):
			return cols - 1
		}
		return int(c)
	}
	// Counting sort: cell c's points take slots start[c]:start[c+1], in
	// ascending ID order; slot k holds point at[k] of node ids[k].
	cell := make([]int32, n)
	start := make([]int32, cols*cols+2)
	for i, p := range pts {
		cell[i] = int32(coord(p.Y)*cols + coord(p.X))
		start[cell[i]+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	ids := make([]NodeID, n)
	at := make([]Point, n)
	for i, c := range cell {
		k := start[c+1]
		start[c+1]++
		ids[k], at[k] = NodeID(i), pts[i]
	}
	// Within a grid row, the three cells of a neighborhood are
	// consecutive slots.
	r2 := r * r
	var es []Edge
	for c := 0; c < cols*cols; c++ {
		cx, cy := c%cols, c/cols
		x0, x1 := max(cx-1, 0), min(cx+1, cols-1)
		for k := start[c]; k < start[c+1]; k++ {
			for y := max(cy-1, 0); y <= min(cy+1, cols-1); y++ {
				for j := start[y*cols+x0]; j < start[y*cols+x1+1]; j++ {
					if ids[j] > ids[k] && at[k].Dist2(at[j]) <= r2 {
						es = append(es, Edge{ids[k], ids[j]})
					}
				}
			}
		}
	}
	return FromEdges(n, es)
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
