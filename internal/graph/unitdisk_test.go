package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// unitDiskQuadratic is the definition UnitDisk implements, tested pair
// by pair: nodes i != j are adjacent iff r >= 0 and their Dist2 is at
// most r*r. It is the oracle of the unit-disk tests.
func unitDiskQuadratic(pts []Point, r float64) *Graph {
	var es []Edge
	for i := range pts {
		for j := i + 1; j < len(pts) && r >= 0; j++ {
			if pts[i].Dist2(pts[j]) <= r*r {
				es = append(es, Edge{NodeID(i), NodeID(j)})
			}
		}
	}
	return FromEdges(len(pts), es)
}

// sameLayout fails unless got is want in the row store itself, not only
// in its edge set: the same rows, arena, dead count and edge count, as
// FromEdges lays them out. Validate reads nothing else, so got passes it
// iff want does.
func sameLayout(t *testing.T, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.arena, want.arena) ||
		cap(got.arena) != len(got.arena) || got.dead != want.dead || got.m != want.m {
		t.Fatalf("layout differs from FromEdges':\n got rows %v arena %v (cap %d) m %d\nwant rows %v arena %v m %d",
			got.rows, got.arena, cap(got.arena), got.m, want.rows, want.arena, want.m)
	}
}

// The builder against its definition, at every worker count from 1 to
// 8 and through the exported entry, which takes the parallel path on a
// multi-core machine once the point set is large enough.
func TestUnitDiskGridMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(400)
		r := 0.01 + rng.Float64()*0.5
		pts := RandomPoints(n, rng)
		want := unitDiskQuadratic(pts, r)
		if err := Validate(want); err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 8; w++ {
			sameLayout(t, unitDisk(pts, r, w), want)
		}
		sameLayout(t, UnitDisk(pts, r), want)
	}
	pts := RandomPoints(2*unitDiskParallelMin+1, rng)
	r := math.Sqrt(10 / (math.Pi * float64(len(pts))))
	sameLayout(t, UnitDisk(pts, r), unitDiskQuadratic(pts, r))
	if g := UnitDisk(nil, 0.1); g.N() != 0 {
		t.Fatal("empty point set")
	}
}

// Adjacency is Dist2 <= r*r for r >= 0 alone: r = 0 joins coincident
// points only, and a negative or NaN radius joins nothing.
func TestUnitDiskRadiusSemantics(t *testing.T) {
	pts := []Point{{0.5, 0.5}, {0.5, 0.5}, {0.6, 0.5}}
	for _, c := range []struct {
		r    float64
		want []Edge
	}{
		{0, []Edge{{0, 1}}},
		{math.Copysign(0, -1), []Edge{{0, 1}}},
		{0.1, []Edge{{0, 1}, {0, 2}, {1, 2}}},
		{-0.5, nil},
		{-math.SmallestNonzeroFloat64, nil},
		{math.Inf(-1), nil},
		{math.NaN(), nil},
	} {
		for _, g := range []*Graph{UnitDisk(pts, c.r), UnitDiskGrid(pts, c.r)} {
			if got := g.Edges(); !slices.Equal(got, c.want) {
				t.Fatalf("r=%v: edges %v, want %v", c.r, got, c.want)
			}
		}
	}
}

// A radius far below the point spacing must give the edgeless graph
// quickly: the cell grid is sized by the point count, never by r⁻²
// (at r = 1e-9 that would be 10¹⁸ cells, and r = 1e-300 overflows).
func TestUnitDiskGridTinyRadius(t *testing.T) {
	pts := RandomPoints(1000, rand.New(rand.NewSource(11)))
	for _, r := range []float64{1e-9, 1e-300} {
		g := UnitDisk(pts, r)
		if g.N() != len(pts) || g.M() != 0 {
			t.Fatalf("r=%g: %v, want 1000 nodes and no edges", r, g)
		}
		if err := Validate(g); err != nil {
			t.Fatalf("r=%g: %v", r, err)
		}
	}
}

// Points outside the unit square land in the border cells, so the grid
// still finds every pair the definition joins, on every side of the
// square.
func TestUnitDiskGridOutsideUnitSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		pts := make([]Point, 100)
		for i := range pts {
			pts[i] = Point{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5}
		}
		sameLayout(t, unitDisk(pts, 0.2, 1+trial%4), unitDiskQuadratic(pts, 0.2))
	}
}

// RandomUnitDisk grows its radius from r0 until the graph connects, so
// it refuses a start that is not positive and finite: 0 and NaN would
// never grow, a negative radius would stand for its absolute value and
// +Inf would skip the search.
func TestRandomUnitDiskRejectsRadius(t *testing.T) {
	for _, r0 := range []float64{-1, math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RandomUnitDisk(5, %v) did not panic", r0)
				}
			}()
			RandomUnitDisk(5, r0, rand.New(rand.NewSource(1)))
		}()
	}
}

// FuzzUnitDisk compares the builder at worker counts 1 to 8 with the
// quadratic definition, layout included. Each byte pair of pts is a
// point whose coordinates lie on a 1/200 lattice over [-0.1, 1.165], so
// coincident points, pairs exactly a lattice radius apart and points
// outside the unit square are common; bytes 253-255 stand for -Inf,
// +Inf and NaN. rsel picks a special radius (negative, zero, tiny,
// typical, at least 1, +Inf, NaN) or else a lattice multiple.
func FuzzUnitDisk(f *testing.F) {
	f.Add([]byte{10, 10, 10, 10, 30, 10, 10, 30}, uint8(2))
	f.Add([]byte{0, 0, 200, 200, 0, 200, 200, 0, 100, 100}, uint8(40))
	f.Add([]byte{255, 0, 0, 255, 254, 254, 253, 7, 7, 7}, uint8(9))
	f.Add([]byte{20, 20, 20, 20, 20, 20, 60, 60}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(255))
	// x = 0.35-0.1 and x = 0.5 are r = 0.25 apart after rounding, and two
	// cells apart at side r; 15 more points bring the side down to r.
	f.Add(append([]byte{70, 0, 120, 0}, slices.Repeat([]byte{200, 200}, 15)...), uint8(50))
	f.Fuzz(func(t *testing.T, raw []byte, rsel uint8) {
		coord := func(b byte) float64 {
			switch b {
			case 253:
				return math.Inf(-1)
			case 254:
				return math.Inf(1)
			case 255:
				return math.NaN()
			}
			return float64(b)/200 - 0.1
		}
		pts := make([]Point, min(len(raw)/2, 128))
		for i := range pts {
			pts[i] = Point{coord(raw[2*i]), coord(raw[2*i+1])}
		}
		radii := []float64{-0.5, -math.SmallestNonzeroFloat64, 0, 1e-300, 1e-9, 0.013, 0.07, 0.25, 1, 40, math.Inf(1), math.NaN()}
		r := float64(rsel) / 200
		if int(rsel) < len(radii) {
			r = radii[rsel]
		}
		want := unitDiskQuadratic(pts, r)
		if err := Validate(want); err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 8; w++ {
			sameLayout(t, unitDisk(pts, r, w), want)
		}
	})
}
