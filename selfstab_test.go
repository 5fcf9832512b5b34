package selfstab

import (
	"math/rand"
	"testing"
)

func TestRunSMMFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomConnected(40, 0.1, rng)
	res, matching := RunSMM(g, 7)
	if !res.Stable {
		t.Fatalf("%v", res)
	}
	if res.Rounds > g.N()+1 {
		t.Fatalf("rounds %d > bound %d", res.Rounds, g.N()+1)
	}
	if err := IsMaximalMatching(g, matching); err != nil {
		t.Fatal(err)
	}
}

func TestRunSMIFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomConnected(40, 0.1, rng)
	res, mis := RunSMI(g, 7)
	if !res.Stable || res.Rounds > g.N()+1 {
		t.Fatalf("%v", res)
	}
	if err := IsMaximalIndependentSet(g, mis); err != nil {
		t.Fatal(err)
	}
	if err := IsMinimalDominatingSet(g, mis); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConfigsAndExecutors(t *testing.T) {
	g := Path(8)
	cfg := NewSMMConfig(g)
	for _, s := range cfg.States {
		if s != Null {
			t.Fatal("NewSMMConfig not all-null")
		}
	}
	l := NewLockstep[Pointer](NewSMM(), cfg)
	if res := l.Run(g.N() + 2); !res.Stable {
		t.Fatalf("%v", res)
	}

	smi := NewSMIConfig(g)
	RandomizeConfig[bool](smi, NewSMI(), rand.New(rand.NewSource(3)))
	l2 := NewLockstep[bool](NewSMI(), smi)
	if res := l2.Run(g.N() + 2); !res.Stable {
		t.Fatalf("%v", res)
	}
}

func TestFacadeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomConnected(12, 0.25, rng)
	net := NewFaultLockstep[Pointer](NewSMM(), NewSMMConfig(g))
	defer net.Close()
	if res := net.Lockstep().Run(g.N() + 2); !res.Stable {
		t.Fatalf("%v", res)
	}
	if err := IsMaximalMatching(g, MatchingOf(net.Config())); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBeacon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomConnected(10, 0.3, rng)
	net := NewBeaconNetwork[bool](NewSMI(), g, make([]bool, g.N()), DefaultBeaconParams(), rng)
	res := net.Run(500, 5)
	if !res.Stable {
		t.Fatalf("%v", res)
	}
	if err := IsMaximalIndependentSet(g, SetOf(net.Config())); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRefineAndDaemon(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomConnected(10, 0.3, rng)

	// Refined Hsu–Huang through the facade.
	ref := Refine[Pointer](NewHsuHuang(), g.N(), 1)
	if ref.Name() != "Refined(HsuHuang)" {
		t.Fatal(ref.Name())
	}

	// Central daemon runner through the facade.
	cfg := NewSMMConfig(g)
	r := NewCentralRunner[Pointer](NewHsuHuang(), cfg, PickRandom, rng)
	res := r.Run(10 * g.N() * g.N())
	if !res.Stable {
		t.Fatalf("%v", res)
	}
	if err := IsMaximalMatching(g, MatchingOf(r.Config())); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Fatal("experiment count")
	}
	e, ok := ExperimentByID("E4")
	if !ok {
		t.Fatal("E4 missing")
	}
	if tbl := e.Run(QuickExperimentOptions()); !tbl.Passed {
		t.Fatal("E4 failed via facade")
	}
}
