package graph

import (
	"math/rand"
	"testing"
)

// checkPartition asserts every structural invariant of a Partition of
// n nodes: contiguous ranges, balanced to within one node, covering
// every node exactly once, and owner consistency. Shared by the unit
// tests and FuzzShardPartition.
func checkPartition(t *testing.T, n int, p *Partition) {
	t.Helper()
	k := p.K()
	if k < 1 {
		t.Fatalf("K = %d", k)
	}
	prev := NodeID(0)
	for s := 0; s < k; s++ {
		lo, hi := p.Range(s)
		if lo != prev || hi < lo {
			t.Fatalf("shard %d: range [%d,%d) does not continue from %d", s, lo, hi, prev)
		}
		if n > 0 && (int(hi-lo) < n/k || int(hi-lo) > n/k+1) {
			t.Fatalf("shard %d: unbalanced range [%d,%d) for n=%d k=%d", s, lo, hi, n, k)
		}
		for v := lo; v < hi; v++ {
			if p.Owner(v) != s {
				t.Fatalf("node %d: Owner = %d, want %d", v, p.Owner(v), s)
			}
		}
		prev = hi
	}
	if int(prev) != n {
		t.Fatalf("ranges end at %d, want %d", prev, n)
	}
}

// The node counts of the usual test families: paths, cycle, star, grid,
// complete, random and edgeless graphs. Ranges never look at the edges.
func TestPartitionInvariantsOnFamilies(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 12, 17, 64, 65, 100, 126} {
		for _, k := range []int{1, 2, 3, 4, 7, 8, 100} {
			p := NewPartition(n, k)
			if p.K() > 1 && p.K() != min(k, n) {
				t.Fatalf("n=%d k=%d: K = %d", n, k, p.K())
			}
			checkPartition(t, n, p)
		}
	}
}

func TestPartitionClamps(t *testing.T) {
	if got := NewPartition(5, 0).K(); got != 1 {
		t.Fatalf("k=0 clamps to %d, want 1", got)
	}
	if got := NewPartition(5, 99).K(); got != 5 {
		t.Fatalf("k=99 over 5 nodes clamps to %d, want 5", got)
	}
	if got := NewPartition(0, 4).K(); got != 1 {
		t.Fatalf("no nodes partition into %d shards, want 1", got)
	}
}

func TestRandomSparseConnected(t *testing.T) {
	g := RandomSparseConnected(500, 8, rand.New(rand.NewSource(3)))
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("not connected")
	}
	wantM := 499 + int(500*(8.0-2)/2)
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	// Deterministic per seed.
	h := RandomSparseConnected(500, 8, rand.New(rand.NewSource(3)))
	if !g.Equal(h) {
		t.Fatal("same seed produced different graphs")
	}
	// avgDeg below 2 yields just the attachment tree.
	tree := RandomSparseConnected(64, 1, rand.New(rand.NewSource(4)))
	if tree.M() != 63 || !IsConnected(tree) {
		t.Fatalf("tree fallback: M = %d", tree.M())
	}
}

func TestUnitDiskGridMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(200)
		r := 0.01 + rng.Float64()*0.5
		pts := RandomPoints(n, rng)
		fast := UnitDiskGrid(pts, r)
		slow := UnitDisk(pts, r)
		if !fast.Equal(slow) {
			t.Fatalf("trial %d (n=%d, r=%v): grid and quadratic unit-disk graphs differ", trial, n, r)
		}
	}
	if g := UnitDiskGrid(nil, 0.1); g.N() != 0 {
		t.Fatal("empty point set")
	}
	if g := UnitDiskGrid([]Point{{0.5, 0.5}}, 0); g.M() != 0 {
		t.Fatal("r=0 must yield no edges")
	}
}

// A radius far below the point spacing must give the edgeless graph
// quickly: the cell grid is sized by the point count, never by r⁻²
// (at r = 1e-9 that would be 10¹⁸ cells, and r = 1e-300 overflows).
func TestUnitDiskGridTinyRadius(t *testing.T) {
	pts := RandomPoints(1000, rand.New(rand.NewSource(11)))
	for _, r := range []float64{1e-9, 1e-300} {
		g := UnitDiskGrid(pts, r)
		if g.N() != len(pts) || g.M() != 0 {
			t.Fatalf("r=%g: %v, want 1000 nodes and no edges", r, g)
		}
		if err := Validate(g); err != nil {
			t.Fatalf("r=%g: %v", r, err)
		}
	}
}

// Points outside the unit square land in the border cells, so the grid
// still finds every pair UnitDisk finds, on every side of the square.
func TestUnitDiskGridOutsideUnitSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		pts := make([]Point, 100)
		for i := range pts {
			pts[i] = Point{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5}
		}
		if !UnitDiskGrid(pts, 0.2).Equal(UnitDisk(pts, 0.2)) {
			t.Fatalf("trial %d: grid and quadratic unit-disk graphs differ", trial)
		}
	}
}
