package graph

import (
	"math/rand"
	"testing"
)

// checkPartition asserts every structural invariant of a Partition
// against its CSR: exact range cover, owner consistency, halo
// soundness/completeness and absorb-span coverage. Shared by the unit
// tests and FuzzShardPartition.
func checkPartition(t *testing.T, c *CSR, p *Partition) {
	t.Helper()
	n := c.N()
	k := p.K()
	if k < 1 {
		t.Fatalf("K = %d", k)
	}

	// Ranges: contiguous, balanced to within one node, covering exactly.
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

	// Halos: sorted, deduplicated, exactly the out-of-range neighbors;
	// every cross-shard edge appears in both endpoints' shards' halos.
	inHalo := func(s int, v NodeID) bool {
		h := p.Halo(s)
		for i := 0; i < len(h); i++ {
			if h[i] == v {
				return true
			}
		}
		return false
	}
	for s := 0; s < k; s++ {
		lo, hi := p.Range(s)
		h := p.Halo(s)
		want := map[NodeID]bool{}
		for v := lo; v < hi; v++ {
			for _, w := range c.Neighbors(v) {
				if w < lo || w >= hi {
					want[w] = true
				}
			}
		}
		if len(h) != len(want) {
			t.Fatalf("shard %d: halo %v, want the %d out-of-range neighbors", s, h, len(want))
		}
		for i, x := range h {
			if !want[x] {
				t.Fatalf("shard %d: halo member %d is not an out-of-range neighbor", s, x)
			}
			if i > 0 && h[i-1] >= x {
				t.Fatalf("shard %d: halo not strictly ascending: %v", s, h)
			}
			// Every halo member lies inside the absorb span aimed at its
			// owner — the mark-exchange completeness invariant.
			d := p.Owner(x)
			alo, ahi := p.AbsorbSpan(s, d)
			if x < alo || x >= ahi {
				t.Fatalf("shard %d: halo member %d outside AbsorbSpan(%d,%d) = [%d,%d)", s, x, s, d, alo, ahi)
			}
			dlo, dhi := p.Range(d)
			if alo < dlo || ahi > dhi {
				t.Fatalf("AbsorbSpan(%d,%d) = [%d,%d) leaves owner range [%d,%d)", s, d, alo, ahi, dlo, dhi)
			}
		}
	}
	for u := NodeID(0); int(u) < n; u++ {
		su := p.Owner(u)
		for _, w := range c.Neighbors(u) {
			if sw := p.Owner(w); sw != su {
				if !inHalo(su, w) || !inHalo(sw, u) {
					t.Fatalf("cross-shard edge {%d,%d} missing from a halo", u, w)
				}
			}
		}
	}
}

func TestPartitionInvariantsOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*Graph{
		Path(1), Path(2), Path(17), Cycle(64), Star(65),
		Grid(9, 14), Complete(12), RandomConnected(100, 0.05, rng),
		New(10), // edgeless: empty halos everywhere
	}
	for _, g := range graphs {
		c := g.Snapshot()
		for _, k := range []int{1, 2, 3, 4, 7, 8, 100} {
			p := NewPartition(c, k)
			if p.K() > 1 && p.K() != min(k, g.N()) {
				t.Fatalf("n=%d k=%d: K = %d", g.N(), k, p.K())
			}
			checkPartition(t, c, p)
		}
	}
}

func TestPartitionClamps(t *testing.T) {
	c := Path(5).Snapshot()
	if got := NewPartition(c, 0).K(); got != 1 {
		t.Fatalf("k=0 clamps to %d, want 1", got)
	}
	if got := NewPartition(c, 99).K(); got != 5 {
		t.Fatalf("k=99 over 5 nodes clamps to %d, want 5", got)
	}
	empty := New(0).Snapshot()
	if got := NewPartition(empty, 4).K(); got != 1 {
		t.Fatalf("empty graph partitions into %d shards, want 1", got)
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
