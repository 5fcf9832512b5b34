package core

import (
	"math/rand"
	"testing"

	"selfstab/internal/graph"
)

// view builds a View over an explicit configuration for rule-level tests.
func view(cfg Config[Pointer], id graph.NodeID) View[Pointer] { return cfg.View(id) }

func pointerCfg(g *graph.Graph, ptrs ...Pointer) Config[Pointer] {
	if len(ptrs) != g.N() {
		panic("pointerCfg: wrong state count")
	}
	cfg := NewConfig[Pointer](g)
	copy(cfg.States, ptrs)
	return cfg
}

func TestPointerBasics(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null.IsNull() = false")
	}
	p := PointAt(7)
	if p.IsNull() || p.Node() != 7 {
		t.Fatalf("PointAt(7) = %v", p)
	}
	if Null.String() != "Λ" || p.String() != "7" {
		t.Fatalf("String: %q %q", Null.String(), p.String())
	}
}

func TestPointerNodeOnNullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Node() on Null did not panic")
		}
	}()
	Null.Node()
}

func TestSMMRule1AcceptsProposal(t *testing.T) {
	// 1 points at 0; 0 is null → 0 must accept (R1) and point back at 1.
	g := graph.Path(3)
	cfg := pointerCfg(g, Null, PointAt(0), Null)
	next, moved := NewSMM().Move(view(cfg, 0))
	if !moved || next != PointAt(1) {
		t.Fatalf("R1: got (%v, %v), want (→1, true)", next, moved)
	}
}

func TestSMMRule1AcceptPolicy(t *testing.T) {
	// Star center 0 with proposers 1, 2, 3.
	g := graph.Star(4)
	cfg := pointerCfg(g, Null, PointAt(0), PointAt(0), PointAt(0))
	minP := &SMM{Accept: AcceptMinID}
	next, moved := minP.Move(view(cfg, 0))
	if !moved || next != PointAt(1) {
		t.Fatalf("AcceptMinID: got %v, want →1", next)
	}
	maxP := &SMM{Accept: AcceptMaxID}
	next, moved = maxP.Move(view(cfg, 0))
	if !moved || next != PointAt(3) {
		t.Fatalf("AcceptMaxID: got %v, want →3", next)
	}
}

func TestSMMRule2ProposesToMinNullNeighbor(t *testing.T) {
	// 2's neighbors on a path 1-2-3: both null, no proposers → propose to 1.
	g := graph.Path(5)
	cfg := pointerCfg(g, Null, Null, Null, Null, Null)
	next, moved := NewSMM().Move(view(cfg, 2))
	if !moved || next != PointAt(1) {
		t.Fatalf("R2: got (%v,%v), want (→1,true)", next, moved)
	}
}

func TestSMMRule2SkipsNonNullNeighbors(t *testing.T) {
	// 1's smaller neighbor 0 has a pointer elsewhere; must propose to 2.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	cfg := pointerCfg(g, PointAt(3), Null, Null, Null)
	next, moved := NewSMM().Move(view(cfg, 1))
	if !moved || next != PointAt(2) {
		t.Fatalf("R2: got (%v,%v), want (→2,true)", next, moved)
	}
}

func TestSMMRule2RequiresNoProposers(t *testing.T) {
	// 1 has a proposer (0→1), so R1 applies, not R2: 1 accepts 0 even
	// though 2 is a null neighbor.
	g := graph.Path(3)
	cfg := pointerCfg(g, PointAt(1), Null, Null)
	next, moved := NewSMM().Move(view(cfg, 1))
	if !moved || next != PointAt(0) {
		t.Fatalf("got (%v,%v), want (→0,true)", next, moved)
	}
}

func TestSMMRule3BacksOff(t *testing.T) {
	// 0→1, 1→2, 2→1: node 0 sees 1 pointing at 2 ∉ {Λ,0} → back off.
	g := graph.Path(3)
	cfg := pointerCfg(g, PointAt(1), PointAt(2), PointAt(1))
	next, moved := NewSMM().Move(view(cfg, 0))
	if !moved || next != Null {
		t.Fatalf("R3: got (%v,%v), want (Λ,true)", next, moved)
	}
}

func TestSMMRule3NotWhenTargetNull(t *testing.T) {
	// 0→1 and 1→Λ: R3 guard requires j to point at a third node.
	g := graph.Path(3)
	cfg := pointerCfg(g, PointAt(1), Null, Null)
	next, moved := NewSMM().Move(view(cfg, 0))
	if moved || next != PointAt(1) {
		t.Fatalf("got (%v,%v), want (→1,false)", next, moved)
	}
}

func TestSMMMatchedPairStable(t *testing.T) {
	// 0↔1 matched: neither moves (Lemma 1 closure).
	g := graph.Path(3)
	cfg := pointerCfg(g, PointAt(1), PointAt(0), Null)
	p := NewSMM()
	for _, id := range []graph.NodeID{0, 1} {
		if _, moved := p.Move(view(cfg, id)); moved {
			t.Fatalf("matched node %d moved", id)
		}
	}
	// Node 2 is aloof next to matched 1: no null neighbor, no proposer →
	// also stable.
	if _, moved := p.Move(view(cfg, 2)); moved {
		t.Fatal("aloof node 2 moved with no null neighbors")
	}
}

func TestSMMIsolatedNodeStable(t *testing.T) {
	g := graph.New(2) // no edges
	cfg := pointerCfg(g, Null, Null)
	if _, moved := NewSMM().Move(view(cfg, 0)); moved {
		t.Fatal("isolated node moved")
	}
}

func TestSMMRandomCoversStateSpace(t *testing.T) {
	g := graph.Star(4)
	rng := rand.New(rand.NewSource(1))
	p := NewSMM()
	seen := map[Pointer]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Random(0, g.Neighbors(0), rng)] = true
	}
	for _, want := range []Pointer{Null, PointAt(1), PointAt(2), PointAt(3)} {
		if !seen[want] {
			t.Errorf("Random never produced %v", want)
		}
	}
	if len(seen) != 4 {
		t.Errorf("Random produced unexpected states: %v", seen)
	}
}

func TestMatchedAndMatchingOf(t *testing.T) {
	g := graph.Path(4)
	cfg := pointerCfg(g, PointAt(1), PointAt(0), PointAt(3), PointAt(2))
	for v := 0; v < 4; v++ {
		if !Matched(cfg, graph.NodeID(v)) {
			t.Fatalf("node %d should be matched", v)
		}
	}
	m := MatchingOf(cfg)
	if len(m) != 2 || m[0] != graph.NewEdge(0, 1) || m[1] != graph.NewEdge(2, 3) {
		t.Fatalf("MatchingOf = %v", m)
	}
	// One-sided pointing is not a match.
	cfg2 := pointerCfg(g, PointAt(1), Null, Null, Null)
	if Matched(cfg2, 0) || len(MatchingOf(cfg2)) != 0 {
		t.Fatal("one-sided pointer reported as matched")
	}
}

func TestValidSMMConfig(t *testing.T) {
	g := graph.Path(3)
	ok := pointerCfg(g, PointAt(1), Null, Null)
	if err := ValidSMMConfig(ok); err != nil {
		t.Fatal(err)
	}
	bad := pointerCfg(g, PointAt(2), Null, Null) // 0-2 not an edge
	if err := ValidSMMConfig(bad); err == nil {
		t.Fatal("pointer at non-neighbor accepted")
	}
}

func TestNormalizeSMM(t *testing.T) {
	g := graph.Path(3)
	cfg := pointerCfg(g, PointAt(1), PointAt(0), PointAt(1))
	g.RemoveEdge(0, 1) // mobility: link {0,1} fails
	n := NormalizeSMM(cfg)
	if n != 2 {
		t.Fatalf("repaired %d pointers, want 2", n)
	}
	if cfg.States[0] != Null || cfg.States[1] != Null {
		t.Fatal("dangling pointers not nulled")
	}
	if cfg.States[2] != PointAt(1) {
		t.Fatal("intact pointer was clobbered")
	}
}

func TestSMMNames(t *testing.T) {
	if NewSMM().Name() != "SMM" {
		t.Fatalf("Name = %q", NewSMM().Name())
	}
	if NewSMMArbitrary().Name() != "SMM(successor,accept-min)" {
		t.Fatalf("Name = %q", NewSMMArbitrary().Name())
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[string]string{
		ProposeMinID.String():     "min-id",
		ProposeMaxID.String():     "max-id",
		ProposeSuccessor.String(): "successor",
		AcceptMinID.String():      "accept-min",
		AcceptMaxID.String():      "accept-max",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestSMMSuccessorPolicyOnC4(t *testing.T) {
	// The counterexample setup: all null on C4; each node proposes to its
	// clockwise (successor) neighbor.
	g := graph.Cycle(4)
	cfg := pointerCfg(g, Null, Null, Null, Null)
	p := NewSMMArbitrary()
	wants := []Pointer{PointAt(1), PointAt(2), PointAt(3), PointAt(0)}
	for v := 0; v < 4; v++ {
		next, moved := p.Move(view(cfg, graph.NodeID(v)))
		if !moved || next != wants[v] {
			t.Fatalf("node %d: got (%v,%v), want (%v,true)", v, next, moved, wants[v])
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	g := graph.Path(3)
	cfg := NewConfig[Pointer](g)
	for _, s := range cfg.States {
		if s != 0 { // zero value of Pointer is 0, not Null — callers must init
			t.Fatal("zero config unexpected")
		}
	}
	rng := rand.New(rand.NewSource(2))
	cfg.Randomize(NewSMM(), rng)
	if err := ValidSMMConfig(cfg); err != nil {
		t.Fatal(err)
	}
	c2 := cfg.Clone()
	c2.States[0] = Null
	if cfg.States[0] == Null && c2.States[0] == Null && &cfg.States[0] == &c2.States[0] {
		t.Fatal("Clone shares state storage")
	}
	ids := cfg.PrivilegedNodes(NewSMM())
	for _, id := range ids {
		if _, moved := NewSMM().Move(cfg.View(id)); !moved {
			t.Fatalf("PrivilegedNodes returned unprivileged %d", id)
		}
	}
}

// TestSMMMoveAllocationFree pins that Move reading through Peer
// allocates nothing under any policy, R2 included: the central and
// distributed daemons call it for every node at every step.
func TestSMMMoveAllocationFree(t *testing.T) {
	g := graph.Star(5)
	cfg := pointerCfg(g, Null, Null, Null, Null, Null)
	for _, p := range []*SMM{{}, {Proposal: ProposeMaxID}, {Proposal: ProposeSuccessor}, {Accept: AcceptMaxID}} {
		for _, id := range []graph.NodeID{0, 3} {
			v := cfg.View(id)
			if avg := testing.AllocsPerRun(20, func() { p.Move(v) }); avg != 0 {
				t.Errorf("%s: Move(node %d) allocates %.1f times per call", p.Name(), id, avg)
			}
		}
	}
}

// TestSMMSuccessorReadsEveryNeighbor pins the successor policy's read
// sequence through Peer: the R1 scan and the R2 scan each read every
// neighbor once, in order, wherever the choice falls. The stale-view
// executor draws a lag per read, so its runs depend on this sequence.
func TestSMMSuccessorReadsEveryNeighbor(t *testing.T) {
	g := graph.Star(5)
	cfg := pointerCfg(g, Null, Null, Null, Null, Null)
	for _, c := range []struct {
		id   graph.NodeID
		want Pointer
	}{{0, PointAt(1)}, {3, PointAt(0)}} {
		v := cfg.View(c.id)
		var reads []graph.NodeID
		fresh := v.Peer
		v.Peer = func(j graph.NodeID) Pointer {
			reads = append(reads, j)
			return fresh(j)
		}
		next, moved := NewSMMArbitrary().Move(v)
		if !moved || next != c.want {
			t.Fatalf("node %d: got (%v, %v), want (%v, true)", c.id, next, moved, c.want)
		}
		want := append(append([]graph.NodeID(nil), v.Nbrs...), v.Nbrs...)
		if len(reads) != len(want) {
			t.Fatalf("node %d read %v, want %v", c.id, reads, want)
		}
		for i := range want {
			if reads[i] != want[i] {
				t.Fatalf("node %d read %v, want %v", c.id, reads, want)
			}
		}
	}
}
