package rules

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
	"selfstab/internal/verify"
)

// Differential test: the Figure 1 transcription and the hand-coded SMM
// must agree move for move on every node of every configuration along
// whole executions.
func TestSMMRulesMatchHandCoded(t *testing.T) {
	eng := SMMRules()
	hand := core.NewSMM()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := graph.RandomConnected(12, 0.3, rng)
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(hand, rng)
		for round := 0; round < g.N()+2; round++ {
			next := make([]core.Pointer, g.N())
			anyMoved := false
			for v := 0; v < g.N(); v++ {
				id := graph.NodeID(v)
				ne, me := eng.Move(cfg.View(id))
				nh, mh := hand.Move(cfg.View(id))
				if ne != nh || me != mh {
					t.Fatalf("trial %d round %d node %d: engine (%v,%v) vs hand (%v,%v) in %v",
						trial, round, v, ne, me, nh, mh, cfg.States)
				}
				next[v] = nh
				anyMoved = anyMoved || mh
			}
			copy(cfg.States, next)
			if !anyMoved {
				break
			}
		}
	}
}

// Same differential test for Figure 4 vs. the hand-coded SMI.
func TestSMIRulesMatchHandCoded(t *testing.T) {
	eng := SMIRules()
	hand := core.NewSMI()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		g := graph.RandomConnected(14, 0.25, rng)
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(hand, rng)
		for round := 0; round < g.N()+2; round++ {
			next := make([]bool, g.N())
			anyMoved := false
			for v := 0; v < g.N(); v++ {
				id := graph.NodeID(v)
				ne, me := eng.Move(cfg.View(id))
				nh, mh := hand.Move(cfg.View(id))
				if ne != nh || me != mh {
					t.Fatalf("trial %d round %d node %d: engine (%v,%v) vs hand (%v,%v)",
						trial, round, v, ne, me, nh, mh)
				}
				next[v] = nh
				anyMoved = anyMoved || mh
			}
			copy(cfg.States, next)
			if !anyMoved {
				break
			}
		}
	}
}

// The engine is itself a full protocol: run it end to end.
func TestEngineRunsAsProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(16, 0.2, rng)
	eng := SMMRules()
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(eng, rng)
	l := sim.NewLockstep[core.Pointer](eng, cfg)
	res := l.Run(g.N() + 2)
	if !res.Stable {
		t.Fatalf("%v", res)
	}
	if err := verify.IsMaximalMatching(g, core.MatchingOf(cfg)); err != nil {
		t.Fatal(err)
	}
}

func TestFiringCensus(t *testing.T) {
	g := graph.Path(6)
	eng := SMMRules()
	cfg := core.NewConfig[core.Pointer](g)
	for i := range cfg.States {
		cfg.States[i] = core.Null
	}
	l := sim.NewLockstep[core.Pointer](eng, cfg)
	if res := l.Run(g.N() + 2); !res.Stable {
		t.Fatalf("%v", res)
	}
	f := eng.Firings()
	total := f["R1"] + f["R2"] + f["R3"]
	if total != int64(l.Moves()) {
		t.Fatalf("firings %v total %d != moves %d", f, total, l.Moves())
	}
	// From the all-null state min-ID proposals are always mutual, so
	// matches form without R1 ever firing — a dynamical fact worth
	// pinning down: only R2 and R3 fire here.
	if f["R1"] != 0 || f["R2"] == 0 || f["R3"] == 0 {
		t.Fatalf("unexpected census from all-null start: %v", f)
	}
	// R1 fires when a proposal arrives at a node that did not propose:
	// seed leaves already pointing at a null-pointer star center. A
	// fresh engine starts its counters at zero.
	eng = SMMRules()
	star := graph.Star(4)
	cfg2 := core.NewConfig[core.Pointer](star)
	cfg2.States[0] = core.Null
	for v := 1; v < 4; v++ {
		cfg2.States[v] = core.PointAt(0)
	}
	l2 := sim.NewLockstep[core.Pointer](eng, cfg2)
	if res := l2.Run(star.N() + 2); !res.Stable {
		t.Fatalf("%v", res)
	}
	if f2 := eng.Firings(); f2["R1"] != 1 {
		t.Fatalf("expected exactly one R1 accept: %v", f2)
	}
}

func TestEngineStringAndRules(t *testing.T) {
	eng := SMIRules()
	s := eng.String()
	for _, want := range []string{"Algorithm SMI-figure4", "R1", "enter the set", "R2", "leave the set"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if len(eng.Firings()) != 2 {
		t.Fatal("rule count")
	}
}

func TestNewEngineRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewEngine[bool]("empty", nil)
}

// Property: on random graphs and states, the one-round successor of the
// Figure 1 engine equals the hand-coded successor (pointwise quick
// check, complementing the trajectory test above).
func TestQuickSMMOneRoundEquivalence(t *testing.T) {
	eng := SMMRules()
	hand := core.NewSMM()
	f := func(seed int64, size uint8) bool {
		n := 3 + int(size%12)
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 0.3, rng)
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(hand, rng)
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			ne, me := eng.Move(cfg.View(id))
			nh, mh := hand.Move(cfg.View(id))
			if ne != nh || me != mh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
