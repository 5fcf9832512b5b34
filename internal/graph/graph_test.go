package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	for v := 0; v < 5; v++ {
		if d := g.Degree(NodeID(v)); d != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, d)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdge(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false on fresh graph")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("AddEdge(1,0) = true for duplicate edge")
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge(0,2) = true for absent edge")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("HasEdge(2,2) = true for self-loop query")
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestRemoveEdge(t *testing.T) {
	g := Path(4)
	if !g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge(1,2) = false for present edge")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge(1,2) = true for absent edge")
	}
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
	if g.HasEdge(1, 2) {
		t.Fatal("edge {1,2} still present after removal")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	g.AddEdge(3, 5)
	g.AddEdge(3, 0)
	g.AddEdge(3, 4)
	g.AddEdge(3, 1)
	want := []NodeID{0, 1, 4, 5}
	got := g.Neighbors(3)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(3) = %v, want %v", got, want)
		}
	}
}

func TestEdges(t *testing.T) {
	g := Cycle(4)
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("len(Edges) = %d, want 4", len(es))
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized", e)
		}
	}
}

func TestNewEdgeNormalizes(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want {2,5}", e)
	}
	if s := e.String(); s != "{2,5}" {
		t.Fatalf("String() = %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.AddEdge(0, 3)
	if g.Equal(c) {
		t.Fatal("mutating clone affected equality unexpectedly")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("mutating clone mutated original")
	}
}

func TestEqual(t *testing.T) {
	if !Path(4).Equal(Path(4)) {
		t.Fatal("identical paths not Equal")
	}
	if Path(4).Equal(Path(5)) {
		t.Fatal("different sizes Equal")
	}
	if Path(4).Equal(Cycle(4)) {
		t.Fatal("path Equal to cycle")
	}
}

func TestRelabel(t *testing.T) {
	g := Path(3) // 0-1-2
	h := g.Relabel([]NodeID{2, 0, 1})
	// 0->2, 1->0, 2->1: edges {2,0} and {0,1}
	if !h.HasEdge(0, 2) || !h.HasEdge(0, 1) || h.HasEdge(1, 2) {
		t.Fatalf("Relabel produced wrong edges: %v", h.Edges())
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Relabel with duplicate did not panic")
		}
	}()
	Path(3).Relabel([]NodeID{0, 0, 1})
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"Path(1)", Path(1), 1, 0},
		{"Path(5)", Path(5), 5, 4},
		{"Cycle(3)", Cycle(3), 3, 3},
		{"Cycle(6)", Cycle(6), 6, 6},
		{"Complete(5)", Complete(5), 5, 10},
		{"Star(5)", Star(5), 5, 4},
		{"K33", CompleteBipartite(3, 3), 6, 9},
		{"Grid(3,4)", Grid(3, 4), 12, 17},
		{"Torus(3,3)", Torus(3, 3), 9, 18},
		{"Hypercube(3)", Hypercube(3), 8, 12},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: (n,m) = (%d,%d), want (%d,%d)", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		if err := Validate(c.g); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 17, 64} {
		g := RandomTree(n, rng)
		if g.N() != n {
			t.Fatalf("n=%d: N() = %d", n, g.N())
		}
		wantM := n - 1
		if n == 0 || n == 1 {
			wantM = 0
		}
		if g.M() != wantM {
			t.Fatalf("n=%d: M() = %d, want %d", n, g.M(), wantM)
		}
		if !IsConnected(g) {
			t.Fatalf("n=%d: tree not connected", n)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := RandomConnected(20, 0.1, rng)
		if !IsConnected(g) {
			t.Fatal("RandomConnected produced disconnected graph")
		}
		if err := Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := RandomGNP(10, 0, rng); g.M() != 0 {
		t.Fatalf("G(10,0) has %d edges", g.M())
	}
	if g := RandomGNP(10, 1, rng); g.M() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", g.M())
	}
}

func TestUnitDisk(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0}, {1, 0}}
	g := UnitDisk(pts, 0.6)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatalf("unit disk edges wrong: %v", g.Edges())
	}
}

func TestRandomUnitDiskConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, pts := RandomUnitDisk(30, 0.05, rng)
	if len(pts) != 30 || g.N() != 30 {
		t.Fatal("wrong node count")
	}
	if !IsConnected(g) {
		t.Fatal("RandomUnitDisk returned disconnected graph")
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(New(0)) || !IsConnected(New(1)) {
		t.Fatal("trivial graphs should be connected")
	}
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if IsConnected(g) {
		t.Fatal("two components reported connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if comps[0][0] != 0 || comps[1][0] != 2 || comps[2][0] != 3 {
		t.Fatalf("component ordering wrong: %v", comps)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(4)
	d := BFSDistances(g, 0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist = %v, want %v", d, want)
		}
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	d2 := BFSDistances(g2, 0)
	if d2[2] != -1 {
		t.Fatalf("unreachable node distance = %d, want -1", d2[2])
	}
}

func TestDiameter(t *testing.T) {
	if d := Diameter(Path(5)); d != 4 {
		t.Fatalf("Diameter(P5) = %d, want 4", d)
	}
	if d := Diameter(Cycle(6)); d != 3 {
		t.Fatalf("Diameter(C6) = %d, want 3", d)
	}
	if d := Diameter(Complete(7)); d != 1 {
		t.Fatalf("Diameter(K7) = %d, want 1", d)
	}
	g := New(2)
	if d := Diameter(g); d != -1 {
		t.Fatalf("Diameter(disconnected) = %d, want -1", d)
	}
}

func TestDegrees(t *testing.T) {
	st := Degrees(Star(5))
	if st.Min != 1 || st.Max != 4 {
		t.Fatalf("Degrees(Star(5)) = %+v", st)
	}
	if st.Mean != 8.0/5.0 {
		t.Fatalf("mean = %v, want 1.6", st.Mean)
	}
	if z := Degrees(New(0)); z != (DegreeStats{}) {
		t.Fatalf("Degrees(empty) = %+v", z)
	}
}

func TestIsCutEdge(t *testing.T) {
	g := Path(4)
	if !IsCutEdge(g, 1, 2) {
		t.Fatal("path middle edge should be a cut edge")
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("IsCutEdge must restore the edge")
	}
	c := Cycle(4)
	if IsCutEdge(c, 0, 1) {
		t.Fatal("cycle edge should not be a cut edge")
	}
}

func TestIsCutEdgeAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IsCutEdge on absent edge did not panic")
		}
	}()
	IsCutEdge(Path(4), 0, 3)
}

func TestRandomPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	perm := RandomPermutation(50, rng)
	seen := make([]bool, 50)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("duplicate in permutation")
		}
		seen[p] = true
	}
}

// Property: random mutation sequences keep the invariants Validate checks.
func TestQuickMutationInvariants(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(10)
		for i := 0; i < int(ops); i++ {
			u := NodeID(rng.Intn(10))
			v := NodeID(rng.Intn(10))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				g.AddEdge(u, v)
			} else {
				g.RemoveEdge(u, v)
			}
		}
		return Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: relabeling preserves edge count, degree multiset, and
// connectivity.
func TestQuickRelabelPreserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(12, 0.2, rng)
		h := g.Relabel(RandomPermutation(12, rng))
		if g.M() != h.M() || !IsConnected(h) {
			return false
		}
		dg := make([]int, 13)
		dh := make([]int, 13)
		for v := 0; v < 12; v++ {
			dg[g.Degree(NodeID(v))]++
			dh[h.Degree(NodeID(v))]++
		}
		for i := range dg {
			if dg[i] != dh[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionCountsMutations(t *testing.T) {
	g := New(4)
	if g.Version() != 0 {
		t.Fatalf("fresh graph version %d", g.Version())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	v := g.Version()
	if v != 2 {
		t.Fatalf("after 2 adds: version %d", v)
	}
	// No-op mutations must not move the version: caches stay valid.
	g.AddEdge(0, 1)
	g.RemoveEdge(2, 3)
	if g.Version() != v {
		t.Fatalf("no-op mutations moved version %d -> %d", v, g.Version())
	}
	g.RemoveEdge(0, 1)
	if g.Version() != v+1 {
		t.Fatalf("remove: version %d", g.Version())
	}
}

// Building K_40 edge by edge outgrows every row's room several times:
// rows relocate to the arena tail, and the dead slots they leave must
// be compacted away before they pass their share of the store.
func TestStoreRelocatesAndCompacts(t *testing.T) {
	const n = 40
	g := New(n)
	compactions := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dead := g.dead
			g.AddEdge(NodeID(u), NodeID(v))
			if g.dead < dead {
				compactions++
			}
			// A relocation adds at most one row's room (< 2n) past the
			// bound it checks before moving.
			if g.dead > (len(g.arena)+n)/deadFraction+2*n {
				t.Fatalf("after {%d,%d}: %d dead slots in an arena of %d", u, v, g.dead, len(g.arena))
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no compaction while building K_40")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(Complete(n)) {
		t.Fatal("store differs from Complete(40)")
	}
}

// FromEdges lays out each row once and keeps a repeated edge once, in
// whichever order its endpoints come.
func TestFromEdges(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {3, 2}, {1, 0}, {4, 0}, {2, 3}, {1, 4}})
	want := New(5)
	for _, e := range [][2]NodeID{{0, 1}, {2, 3}, {0, 4}, {1, 4}} {
		want.AddEdge(e[0], e[1])
	}
	if !g.Equal(want) || g.M() != 4 {
		t.Fatalf("FromEdges: %v %v, want %v", g, g.Edges(), want.Edges())
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	// The rows have no slack, so the next add relocates and a
	// remove-add pair then fits in place.
	g.AddEdge(0, 2)
	g.RemoveEdge(0, 2)
	g.AddEdge(0, 2)
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.Version() != 3 {
		t.Fatalf("version %d after three edits of a bulk-built graph", g.Version())
	}
}
