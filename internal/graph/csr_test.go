package graph

import (
	"math/rand"
	"testing"
)

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

func TestCSRMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := RandomConnected(2+rng.Intn(40), 0.2, rng)
		c := BuildCSR(g)
		if !c.fresh(g) {
			t.Fatal("fresh CSR not fresh")
		}
		if c.N() != g.N() {
			t.Fatalf("N %d != %d", c.N(), g.N())
		}
		for v := 0; v < g.N(); v++ {
			id := NodeID(v)
			want := g.Neighbors(id)
			got := c.Neighbors(id)
			if len(got) != len(want) {
				t.Fatalf("node %d: %v vs %v", v, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d: %v vs %v", v, got, want)
				}
			}
		}
	}
}

func TestCSRStaleAfterMutation(t *testing.T) {
	g := Cycle(5)
	c := BuildCSR(g)
	g.RemoveEdge(0, 1)
	if c.fresh(g) {
		t.Fatal("CSR still fresh after edge removal")
	}
	if !BuildCSR(g).fresh(g) {
		t.Fatal("rebuilt CSR not fresh")
	}
}
