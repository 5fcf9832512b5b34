package daemon

import (
	"math/rand"
	"slices"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/protocols"
	"selfstab/internal/verify"
)

func nullCfg(g *graph.Graph) core.Config[core.Pointer] {
	cfg := core.NewConfig[core.Pointer](g)
	for i := range cfg.States {
		cfg.States[i] = core.Null
	}
	return cfg
}

func TestCentralPickStrategies(t *testing.T) {
	g := graph.Path(6)
	p := core.NewSMM()
	cfg := nullCfg(g)
	privileged := cfg.PrivilegedNodes(p)
	if len(privileged) == 0 {
		t.Fatal("no privileged nodes on all-null path")
	}
	rng := rand.New(rand.NewSource(1))

	min := NewCentral[core.Pointer](PickMin, nil)
	if got := min.Select(cfg, p, privileged); len(got) != 1 || got[0] != privileged[0] {
		t.Fatalf("PickMin selected %v", got)
	}
	max := NewCentral[core.Pointer](PickMax, nil)
	if got := max.Select(cfg, p, privileged); len(got) != 1 || got[0] != privileged[len(privileged)-1] {
		t.Fatalf("PickMax selected %v", got)
	}
	rnd := NewCentral[core.Pointer](PickRandom, rng)
	if got := rnd.Select(cfg, p, privileged); len(got) != 1 {
		t.Fatalf("PickRandom selected %v", got)
	}
	adv := NewCentral[core.Pointer](PickAdversarial, nil)
	if got := adv.Select(cfg, p, privileged); len(got) != 1 {
		t.Fatalf("PickAdversarial selected %v", got)
	}
}

// TestAdversarialMatchesFullRecount pins PickAdversarial's choice to
// its definition, evaluated the long way: apply each candidate's move to
// a copy of the configuration, count every privileged node there, and
// take the first candidate with the largest count. Select must also
// leave the configuration as it found it.
func TestAdversarialMatchesFullRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomConnected(4+rng.Intn(12), 0.3, rng)
		adversarialAgrees(t, protocols.NewHsuHuang(), g, rng)
		adversarialAgrees[core.Pointer](t, core.NewSMM(), g, rng)
		adversarialAgrees[bool](t, core.NewSMI(), g, rng)
	}
}

func adversarialAgrees[S comparable](t *testing.T, p core.Protocol[S], g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	cfg := core.NewConfig[S](g)
	cfg.Randomize(p, rng)
	for step := 0; step < 3*g.N(); step++ {
		privileged := cfg.PrivilegedNodes(p)
		if len(privileged) == 0 {
			return
		}
		want, wantCount := privileged[0], -1
		for _, u := range privileged {
			trial := cfg.Clone()
			trial.States[u], _ = p.Move(trial.View(u))
			if c := len(trial.PrivilegedNodes(p)); c > wantCount {
				want, wantCount = u, c
			}
		}
		before := slices.Clone(cfg.States)
		got := NewCentral[S](PickAdversarial, nil).Select(cfg, p, privileged)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%s on %v: adversary picked %v, full recount picks %d", p.Name(), g, got, want)
		}
		if !slices.Equal(cfg.States, before) {
			t.Fatalf("%s: Select changed the configuration", p.Name())
		}
		cfg.States[want], _ = p.Move(cfg.View(want))
	}
}

func TestPickStrings(t *testing.T) {
	wants := map[Pick]string{
		PickRandom: "random", PickMin: "min", PickMax: "max", PickAdversarial: "adversarial",
	}
	for p, want := range wants {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestDistributedSelectsNonemptySubset(t *testing.T) {
	g := graph.Path(8)
	p := core.NewSMM()
	cfg := nullCfg(g)
	privileged := cfg.PrivilegedNodes(p)
	rng := rand.New(rand.NewSource(2))
	d := NewDistributed[core.Pointer](0.0, rng) // forces the fallback branch
	for i := 0; i < 20; i++ {
		got := d.Select(cfg, p, privileged)
		if len(got) != 1 {
			t.Fatalf("p=0 selected %v", got)
		}
	}
	d1 := NewDistributed[core.Pointer](1.0, rng)
	if got := d1.Select(cfg, p, privileged); len(got) != len(privileged) {
		t.Fatalf("p=1 selected %d of %d", len(got), len(privileged))
	}
}

func TestRunnerCentralDaemonSMM(t *testing.T) {
	// SMM is also correct under a central daemon (serial moves are a
	// special case of the convergence argument).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(10, 0.3, rng)
		p := core.NewSMM()
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(p, rng)
		r := NewRunner[core.Pointer](p, cfg, NewCentral[core.Pointer](PickRandom, rng))
		res := r.Run(10 * g.N() * g.N())
		if !res.Stable {
			t.Fatalf("trial %d: %v", trial, res)
		}
		if res.Steps != res.Moves {
			t.Fatalf("central daemon: steps %d != moves %d", res.Steps, res.Moves)
		}
		if err := verify.IsMaximalMatching(g, core.MatchingOf(r.Config())); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRunnerDistributedDaemonSMI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(12, 0.25, rng)
		p := core.NewSMI()
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(p, rng)
		r := NewRunner[bool](p, cfg, NewDistributed[bool](0.5, rng))
		res := r.Run(100 * g.N())
		if !res.Stable {
			t.Fatalf("trial %d: %v", trial, res)
		}
		if err := verify.IsMaximalIndependentSet(g, core.SetOf(r.Config())); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRunnerStopsAtFixedPoint(t *testing.T) {
	g := graph.Path(2)
	cfg := core.NewConfig[core.Pointer](g)
	cfg.States[0] = core.PointAt(1)
	cfg.States[1] = core.PointAt(0)
	r := NewRunner[core.Pointer](core.NewSMM(), cfg, NewCentral[core.Pointer](PickMin, nil))
	if got := r.Step(); got != 0 {
		t.Fatalf("Step on fixed point moved %d nodes", got)
	}
	res := r.Run(10)
	if !res.Stable || res.Steps != 0 {
		t.Fatalf("Run on fixed point: %v", res)
	}
}

func TestRunnerHonorsStepLimit(t *testing.T) {
	// A distributed daemon that activates every privileged node (the
	// synchronous model) + the divergent successor policy on C4.
	g := graph.Cycle(4)
	p := core.NewSMMArbitrary()
	cfg := nullCfg(g)
	r := NewRunner[core.Pointer](p, cfg, NewDistributed[core.Pointer](1.0, rand.New(rand.NewSource(1))))
	res := r.Run(9)
	if res.Stable || res.Steps != 9 {
		t.Fatalf("res = %v", res)
	}
	if r.Steps() != 9 || r.Moves() != 9*4 {
		t.Fatalf("Steps=%d Moves=%d", r.Steps(), r.Moves())
	}
}

func TestResultString(t *testing.T) {
	r := Result{Steps: 3, Moves: 3, Stable: true}
	if r.String() != "stable in 3 steps (3 moves)" {
		t.Fatalf("%q", r.String())
	}
	r.Stable = false
	if r.String() != "NOT stable after 3 steps (3 moves)" {
		t.Fatalf("%q", r.String())
	}
}

func TestNames(t *testing.T) {
	if NewCentral[bool](PickAdversarial, nil).Name() != "central-adversarial" {
		t.Fatal("central name")
	}
	if NewDistributed[bool](0.25, nil).Name() != "distributed-0.25" {
		t.Fatal("distributed name")
	}
}
