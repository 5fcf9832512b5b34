package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// spinner is a protocol that never stabilizes: every node is privileged
// in every configuration. It is the worst case cancellation exists for:
// a run over it with a large round budget never returns on its own.
type spinner struct{}

func (spinner) Name() string { return "spinner" }

func (spinner) Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) int {
	return rng.Intn(2)
}

func (spinner) Move(v core.View[int]) (int, bool) { return 1 - v.Self, true }

func spinnerConfig(n int) core.Config[int] {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
	}
	return core.NewConfig[int](g)
}

func TestConvergeCtxCanceledBeforeStart(t *testing.T) {
	l := NewLockstep[int](spinner{}, spinnerConfig(8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := l.ConvergeCtx(ctx, 1<<30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ConvergeCtx err = %v, want context.Canceled", err)
	}
	if res.Rounds != 0 || res.Stable {
		t.Fatalf("ConvergeCtx on canceled ctx ran: %+v", res)
	}
}

func TestConvergeCtxStopsNonStabilizingRun(t *testing.T) {
	l := NewLockstep[int](spinner{}, spinnerConfig(8))
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	// Kick the canceller once the run is provably in flight: the hook
	// fires after the first active round. The flags are ConvergeCtx's.
	res, err := l.runLoop(ctx, 1<<30, false, false, func(round int, cfg core.Config[int]) {
		select {
		case <-started:
		default:
			close(started)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ConvergeCtx err = %v, want context.Canceled", err)
	}
	if res.Rounds < 1 {
		t.Fatalf("ConvergeCtx stopped before any round: %+v", res)
	}
	if res.Stable {
		t.Fatalf("canceled run reported stable: %+v", res)
	}
}

func TestConvergeCtxBackgroundMatchesRun(t *testing.T) {
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
	}
	rng := rand.New(rand.NewSource(7))
	cfgA := core.NewConfig[core.Pointer](g)
	cfgA.Randomize(core.NewSMM(), rng)
	cfgB := cfgA.Clone()

	a := NewLockstep(core.NewSMM(), cfgA)
	b := NewLockstep(core.NewSMM(), cfgB)
	ra := a.Run(100)
	rb, err := b.ConvergeCtx(context.Background(), 100)
	if err != nil {
		t.Fatalf("ConvergeCtx: %v", err)
	}
	if ra != rb {
		t.Fatalf("Run = %+v, ConvergeCtx = %+v", ra, rb)
	}
	for v := range cfgA.States {
		if cfgA.States[v] != cfgB.States[v] {
			t.Fatalf("state divergence at node %d: %v vs %v", v, cfgA.States[v], cfgB.States[v])
		}
	}
}

// TestConvergeCtxChunkedMatchesOneShot pins the chunked-convergence
// determinism argument the service layer relies on: slicing one
// convergence run into many small ConvergeCtx calls lands on the exact
// states (and total active rounds) of a single uninterrupted Run.
func TestConvergeCtxChunkedMatchesOneShot(t *testing.T) {
	build := func() (core.Config[core.Pointer], *FaultLockstep[core.Pointer]) {
		g := graph.New(16)
		for v := 1; v < 16; v++ {
			g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
		}
		g.AddEdge(0, 15)
		cfg := core.NewConfig[core.Pointer](g)
		for v := range cfg.States {
			cfg.States[v] = core.Null
		}
		return cfg, NewFaultLockstep(core.NewSMM(), cfg)
	}

	cfgA, fa := build()
	cfgB, fb := build()

	// Identical mutation on both: cut an edge, then corrupt a node.
	mutate := func(f *FaultLockstep[core.Pointer]) {
		f.SetLink(graph.NewEdge(3, 4), false)
		f.WriteState(7, core.PointAt(6))
	}
	fa.Lockstep().Run(100)
	fb.Lockstep().Run(100)
	mutate(fa)
	mutate(fb)

	resA, err := fa.Lockstep().ConvergeCtx(context.Background(), 100)
	if err != nil || !resA.Stable {
		t.Fatalf("one-shot ConvergeCtx: %+v err=%v", resA, err)
	}
	roundsB := 0
	for i := 0; i < 200; i++ {
		res, err := fb.Lockstep().ConvergeCtx(context.Background(), 2)
		if err != nil {
			t.Fatalf("chunked ConvergeCtx: %v", err)
		}
		roundsB += res.Rounds
		if res.Stable {
			break
		}
	}
	if roundsB != resA.Rounds {
		t.Fatalf("chunked rounds %d != one-shot rounds %d", roundsB, resA.Rounds)
	}
	for v := range cfgA.States {
		if cfgA.States[v] != cfgB.States[v] {
			t.Fatalf("state divergence at node %d: %v vs %v", v, cfgA.States[v], cfgB.States[v])
		}
	}
}

func TestShardedRunCtxCancel(t *testing.T) {
	l := NewShardedLockstep[int](spinner{}, spinnerConfig(64), 4)
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	canceled := false
	res, err := l.runLoop(ctx, 1<<30, true, true, func(round int, cfg core.Config[int]) {
		if round >= 3 && !canceled {
			canceled = true
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded run err = %v, want context.Canceled", err)
	}
	if res.Stable || res.Rounds < 3 {
		t.Fatalf("sharded run result: %+v", res)
	}
}
