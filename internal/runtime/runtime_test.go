package runtime

import (
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/mobility"
	"selfstab/internal/protocols"
	"selfstab/internal/sim"
	"selfstab/internal/verify"
)

func randomStates[S comparable](p core.Protocol[S], g *graph.Graph, seed int64) []S {
	rng := rand.New(rand.NewSource(seed))
	s := make([]S, g.N())
	for v := range s {
		s[v] = p.Random(graph.NodeID(v), g.Neighbors(graph.NodeID(v)), rng)
	}
	return s
}

func TestSMMConcurrentMatchesLockstep(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := graph.RandomConnected(20, 0.2, rng)
		p := core.NewSMM()
		states := randomStates[core.Pointer](p, g, int64(trial))

		// Reference lockstep run.
		ref := core.NewConfig[core.Pointer](g)
		copy(ref.States, states)
		l := sim.NewLockstep[core.Pointer](p, ref)
		lres := l.Run(g.N() + 2)

		// Concurrent run on the same inputs.
		net := New[core.Pointer](p, g.Clone(), append([]core.Pointer(nil), states...))
		defer net.Close()
		rounds, _, stable := net.Run(g.N() + 2)

		if !lres.Stable || !stable {
			t.Fatalf("trial %d: lockstep %v, runtime stable=%v", trial, lres, stable)
		}
		if rounds != lres.Rounds {
			t.Fatalf("trial %d: runtime rounds %d != lockstep %d", trial, rounds, lres.Rounds)
		}
		for v := range states {
			if net.Config().States[v] != ref.States[v] {
				t.Fatalf("trial %d: state divergence at node %d: %v vs %v",
					trial, v, net.Config().States[v], ref.States[v])
			}
		}
	}
}

func TestSMIConcurrentMatchesLockstep(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(100 + int64(trial)))
		g := graph.RandomConnected(25, 0.15, rng)
		p := core.NewSMI()
		states := randomStates[bool](p, g, int64(trial))

		ref := core.NewConfig[bool](g)
		copy(ref.States, states)
		l := sim.NewLockstep[bool](p, ref)
		lres := l.Run(g.N() + 2)

		net := New[bool](p, g.Clone(), append([]bool(nil), states...))
		defer net.Close()
		rounds, _, stable := net.Run(g.N() + 2)

		if !lres.Stable || !stable || rounds != lres.Rounds {
			t.Fatalf("trial %d: lockstep %v vs runtime rounds=%d stable=%v", trial, lres, rounds, stable)
		}
		if err := verify.IsMaximalIndependentSet(g, core.SetOf(net.Config())); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentReproducesCounterexample(t *testing.T) {
	g := graph.Cycle(4)
	states := []core.Pointer{core.Null, core.Null, core.Null, core.Null}
	net := New[core.Pointer](core.NewSMMArbitrary(), g, states)
	defer net.Close()
	rounds, _, stable := net.Run(100)
	if stable || rounds != 100 {
		t.Fatalf("rounds=%d stable=%v, want 100 unstable", rounds, stable)
	}
}

func TestApplyEventsRepairsPointers(t *testing.T) {
	g := graph.Path(2)
	states := []core.Pointer{core.PointAt(1), core.PointAt(0)}
	net := New[core.Pointer](core.NewSMM(), g, states)
	defer net.Close()
	net.ApplyEvents([]mobility.Event{{Add: false, Edge: graph.NewEdge(0, 1)}})
	cfg := net.Config()
	if cfg.States[0] != core.Null || cfg.States[1] != core.Null {
		t.Fatalf("states after link loss: %v", cfg.States)
	}
	if active := net.Step(); active != 0 {
		t.Fatalf("isolated pair still active: %d", active)
	}
}

func TestMobilityLoopRestabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(15, 0.25, rng)
	p := core.NewSMM()
	net := New[core.Pointer](p, g, randomStates[core.Pointer](p, g, 7))
	defer net.Close()

	for epoch := 0; epoch < 5; epoch++ {
		rounds, _, stable := net.Run(g.N() + 2)
		if !stable {
			t.Fatalf("epoch %d: not stable after %d rounds", epoch, rounds)
		}
		if err := verify.IsMaximalMatching(g, core.MatchingOf(net.Config())); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		churn := mobility.NewChurn(g, rng)
		net.ApplyEvents(churn.Apply(2))
	}
}

// TestCloseReleasesNodeGoroutines verifies Close reaps every node
// goroutine after a mid-run stop: steps are taken, the network is
// abandoned before reaching a fixed point, and Close must still return
// the process to its baseline goroutine count — no goroutine parked on
// a round channel forever.
func TestCloseReleasesNodeGoroutines(t *testing.T) {
	baseline := goruntime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := graph.RandomConnected(30, 0.2, rng)
		p := core.NewSMM()
		net := New[core.Pointer](p, g, randomStates[core.Pointer](p, g, int64(trial)))
		// Stop mid-run: a handful of rounds, nowhere near convergence.
		for i := 0; i < 3; i++ {
			net.Step()
		}
		net.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		goruntime.GC() // nudge the scheduler so exiting goroutines finish
		if n := goruntime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				goruntime.NumGoroutine(), baseline, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseIdempotent(t *testing.T) {
	net := New[bool](core.NewSMI(), graph.Path(3), make([]bool, 3))
	net.Close()
	net.Close() // must not panic or deadlock
}

func TestStepAfterClosePanics(t *testing.T) {
	net := New[bool](core.NewSMI(), graph.Path(3), make([]bool, 3))
	net.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	net.Step()
}

func TestWrongStateCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[bool](core.NewSMI(), graph.Path(3), make([]bool, 2))
}

func TestRandomizedProtocolConcurrent(t *testing.T) {
	// RandMIS exercises per-node RNGs from concurrent goroutines; run
	// under -race this validates the race-freedom contract.
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(12, 0.3, rng)
	p := protocols.NewRandMIS(g.N(), 42)
	net := New[bool](p, g, randomStates[bool](p, g, 9))
	defer net.Close()
	rounds, _, stable := net.Run(500 * g.N())
	if !stable {
		t.Fatalf("RandMIS not stable after %d rounds", rounds)
	}
	if err := verify.IsMaximalIndependentSet(g, core.SetOf(net.Config())); err != nil {
		t.Fatal(err)
	}
}

// An edit made straight on the graph followed by a hooked flip in the
// same inter-round window must be evaluated: DirtyEdge reports only the
// second edge, so the network has to notice the version moved by two.
// Four isolated nodes sit at SMI's fixed point (all in); linking 0–1
// behind the network's back makes two adjacent members.
func TestUnhookedEditBeforeHookedFlipIsEvaluated(t *testing.T) {
	g := graph.New(4)
	f := NewFaultNetwork[bool](core.NewSMI(), g, make([]bool, 4))
	defer f.Close()
	if _, _, stable := f.Network().Run(10); !stable {
		t.Fatal("did not stabilize")
	}
	g.AddEdge(0, 1)
	f.SetLink(graph.NewEdge(2, 3), true)
	for r := 0; f.Step() > 0; r++ {
		if r == 10 {
			t.Fatal("did not quiesce")
		}
	}
	if err := verify.IsMaximalIndependentSet(g, core.SetOf(f.Config())); err != nil {
		t.Fatalf("quiet but not legitimate: %v", err)
	}
}
