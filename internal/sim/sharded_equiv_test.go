package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/protocols"
	"selfstab/internal/verify"
)

// This file is the sharded-vs-reference metamorphic suite: the sharded
// engine at 1, 2, 4, and 8 shards must produce byte-identical executions
// — per-round move counts, per-round state vectors, Result values, fault
// reports — to the full-scan reference engine on arbitrary graphs,
// arbitrary initial configurations, and arbitrary fault schedules. Any
// divergence means a shard-phase invariant is broken (ownership, absorb
// coverage, or barrier placement; see DESIGN.md §7c). The equivalence
// tests, the pooled runs and the steady-state allocation test run with
// dense rounds never, at the default threshold and after every moving
// round (eachDense).

var shardCounts = [4]int{1, 2, 4, 8}

func TestShardedMatchesReferenceSMM(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(200))
		for trial := 0; trial < 15; trial++ {
			g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
			seed := int64(trial)
			for _, k := range shardCounts {
				sh := NewShardedLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed), k)
				ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
				stepCompare(t, "sharded SMM", sh, ref, g.N()+4)
				sh.Close()
			}
		}
	})
}

func TestShardedMatchesReferenceSMI(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(201))
		for trial := 0; trial < 15; trial++ {
			g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
			seed := int64(trial)
			for _, k := range shardCounts {
				sh := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed), k)
				ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
				stepCompare(t, "sharded SMI", sh, ref, g.N()+4)
				sh.Close()
			}
		}
	})
}

// The opaque wrapper hides the Kernel (and every other fast-path
// interface), forcing the sharded engine onto its generic commit+mark
// split with closed-neighborhood marking — which must agree with the
// reference's full scan.
func TestShardedGenericPathMatchesReference(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(202))
		for trial := 0; trial < 12; trial++ {
			g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
			seed := int64(trial)
			for _, k := range shardCounts {
				sh := NewShardedLockstep[core.Pointer](opaque[core.Pointer]{core.NewSMM()}, equivCfg[core.Pointer](core.NewSMM(), g, seed), k)
				ref := NewReferenceLockstep[core.Pointer](opaque[core.Pointer]{core.NewSMM()}, equivCfg[core.Pointer](core.NewSMM(), g, seed))
				stepCompare(t, "sharded generic SMM", sh, ref, g.N()+4)
				sh.Close()
			}
		}
	})
}

// Guard-gated randomness must survive sharding: a node skipped by any
// shard's frontier consumes no coin flips, so the per-node streams stay
// aligned with the reference for every shard count.
func TestShardedMatchesReferenceRandMIS(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(203))
		for trial := 0; trial < 8; trial++ {
			g := graph.RandomConnected(2+rng.Intn(30), 0.1+rng.Float64()*0.3, rng)
			seed := int64(trial)
			for _, k := range shardCounts {
				ps := protocols.NewRandMIS(g.N(), seed)
				pr := protocols.NewRandMIS(g.N(), seed)
				sh := NewShardedLockstep[bool](ps, equivCfg[bool](ps, g, seed), k)
				ref := NewReferenceLockstep[bool](pr, equivCfg[bool](pr, g, seed))
				stepCompare(t, "sharded RandMIS", sh, ref, 6*g.N()+10)
				sh.Close()
			}
		}
	})
}

// Refined(SMM) changes aux state with moved == false, so the sharded
// generic path's change flags (not the moved flags) must drive its
// marking at every shard count.
func TestShardedMatchesReferenceRefined(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(204))
		for trial := 0; trial < 8; trial++ {
			g := graph.RandomConnected(2+rng.Intn(25), 0.1+rng.Float64()*0.3, rng)
			seed := int64(trial)
			for _, k := range shardCounts {
				ps := protocols.Refine[core.Pointer](core.NewSMM(), g.N(), seed)
				pr := protocols.Refine[core.Pointer](core.NewSMM(), g.N(), seed)
				sh := NewShardedLockstep(ps, equivCfg[protocols.RefState[core.Pointer]](ps, g, seed), k)
				ref := NewReferenceLockstep(pr, equivCfg[protocols.RefState[core.Pointer]](pr, g, seed))
				stepCompare(t, "sharded Refined(SMM)", sh, ref, 8*g.N()+10)
				sh.Close()
			}
		}
	})
}

// The pooled dispatch path — real worker goroutines, channel barriers —
// must be byte-identical too. shardParallelMin is lowered so even these
// small graphs cross the threshold; under -race this doubles as the
// data-race proof for the four-phase footprint argument. A single shard
// must still never spawn a pool, however large its rounds.
func TestShardedPooledPathMatchesReference(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		old := shardParallelMin
		shardParallelMin = 1
		defer func() { shardParallelMin = old }()

		rng := rand.New(rand.NewSource(205))
		for trial := 0; trial < 10; trial++ {
			g := graph.RandomConnected(4+rng.Intn(40), 0.1+rng.Float64()*0.3, rng)
			seed := int64(trial)
			for _, k := range shardCounts {
				sh := NewShardedLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed), k)
				ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
				stepCompare(t, "pooled sharded SMM", sh, ref, g.N()+4)
				if k == 1 && sh.workCh != nil {
					t.Fatal("single-shard engine spawned a worker pool")
				}
				sh.Close()

				shi := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed), k)
				refi := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
				stepCompare(t, "pooled sharded SMI", shi, refi, g.N()+4)
				shi.Close()

				// RandMIS takes the generic Move path, so concurrent shards
				// draw from its per-node generators at once.
				ps := protocols.NewRandMIS(g.N(), seed)
				pr := protocols.NewRandMIS(g.N(), seed)
				shr := NewShardedLockstep[bool](ps, equivCfg[bool](ps, g, seed), k)
				refr := NewReferenceLockstep[bool](pr, equivCfg[bool](pr, g, seed))
				stepCompare(t, "pooled sharded RandMIS", shr, refr, 6*g.N()+10)
				shr.Close()
			}
		}
	})
}

// RandMIS uses per-node generators; running it on 8 pooled shard workers
// under -race validates the concurrency contract end to end, and the
// fixed point it reaches must still verify as a maximal independent set.
func TestParallelRandomizedProtocolRaceFree(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		old := shardParallelMin
		shardParallelMin = 1
		defer func() { shardParallelMin = old }()

		rng := rand.New(rand.NewSource(11))
		g := graph.RandomConnected(30, 0.12, rng)
		p := protocols.NewRandMIS(g.N(), 77)
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(p, rng)
		l := NewShardedLockstep[bool](p, cfg, 8)
		defer l.Close()
		res := l.Run(2000)
		if !res.Stable {
			t.Fatalf("%v", res)
		}
		if err := verify.IsMaximalIndependentSet(g, core.SetOf(cfg)); err != nil {
			t.Fatal(err)
		}
	})
}

// Close reaps the worker pool of an engine abandoned mid-run: pooled
// four-shard engines take a few rounds, nowhere near convergence, and
// once closed the process must return to its baseline goroutine count.
func TestCloseReleasesNodeGoroutines(t *testing.T) {
	old := shardParallelMin
	shardParallelMin = 1
	defer func() { shardParallelMin = old }()

	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := graph.RandomConnected(30, 0.2, rng)
		p := core.NewSMM()
		l := NewShardedLockstep[core.Pointer](p, equivCfg[core.Pointer](p, g, int64(trial)), 4)
		for i := 0; i < 3; i++ {
			l.Step()
		}
		if l.workCh == nil {
			t.Fatal("pooled engine spawned no workers")
		}
		l.Close()
	}
	awaitGoroutines(t, baseline)
}

// Close may be called twice, on a pooled engine and on a single-shard
// one that never spawned a pool, and still reaps every worker.
func TestCloseIdempotent(t *testing.T) {
	old := shardParallelMin
	shardParallelMin = 1
	defer func() { shardParallelMin = old }()

	baseline := runtime.NumGoroutine()
	for _, k := range []int{1, 4} {
		l := NewShardedLockstep[bool](core.NewSMI(), core.NewConfig[bool](graph.Path(8)), k)
		for i := 0; i < 3; i++ {
			l.Step()
		}
		l.Close()
		l.Close() // must not panic or deadlock
	}
	awaitGoroutines(t, baseline)
}

// The unhooked-edit-then-hooked-flip window of
// TestUnhookedEditBeforeHookedFlipIsEvaluated, on a pooled four-shard
// fault executor driven round by round: each shard holds one node, so
// the edge made straight on the graph crosses shards that heard of no
// edit, and the pool must still evaluate both of its endpoints.
func TestUnhookedEditBeforeHookedFlipIsEvaluatedSharded(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		old := shardParallelMin
		shardParallelMin = 1
		defer func() { shardParallelMin = old }()

		g := graph.New(4)
		f := NewShardedFaultLockstep[bool](core.NewSMI(), core.NewConfig[bool](g), 4)
		defer f.Close()
		if res := f.Lockstep().Run(10); !res.Stable {
			t.Fatalf("did not stabilize: %v", res)
		}
		g.AddEdge(0, 1)
		f.SetLink(graph.NewEdge(2, 3), true)
		for r := 0; f.Step() > 0; r++ {
			if r == 10 {
				t.Fatal("did not quiesce")
			}
		}
		if f.Lockstep().workCh == nil {
			t.Fatal("pooled engine spawned no workers")
		}
		if err := verify.IsMaximalIndependentSet(g, core.SetOf(f.Config())); err != nil {
			t.Fatalf("quiet but not legitimate: %v", err)
		}
	})
}

// awaitGoroutines waits up to 5 s for the goroutine count to fall back
// to baseline, then fails with every goroutine's stack.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Run must return identical Results and fixpoints for every shard count.
func TestShardedRunResultMatches(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(206))
		for trial := 0; trial < 10; trial++ {
			g := graph.RandomConnected(4+rng.Intn(40), 0.1+rng.Float64()*0.3, rng)
			seed := int64(trial)
			ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
			want := ref.Run(g.N() + 2)
			for _, k := range shardCounts {
				sh := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed), k)
				got := sh.Run(g.N() + 2)
				if got != want {
					t.Fatalf("shards=%d: Result %+v, reference %+v", k, got, want)
				}
				for v := range sh.cfg.States {
					if sh.cfg.States[v] != ref.cfg.States[v] {
						t.Fatalf("shards=%d: node %d diverged at fixpoint", k, v)
					}
				}
				sh.Close()
			}
		}
	})
}

// Replaying a generated fault schedule on the sharded fault adapter and
// on the reference adapter must produce deeply equal monitor reports and
// identical final states at every shard count. This exercises the dirty
// routing to owning shards across link flips.
func TestShardedFaultScheduleMatchesReference(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(207))
		for trial := 0; trial < 10; trial++ {
			n := 6 + rng.Intn(14)
			g := graph.RandomConnected(n, 0.3, rng)
			seed := int64(trial) * 9973
			sched := faults.Generate(seed, g, faults.GenParams{Events: 6, Start: n + 2})

			run := func(mk func(core.Protocol[core.Pointer], core.Config[core.Pointer]) *FaultLockstep[core.Pointer]) (faults.Report, []core.Pointer) {
				p := core.NewSMM()
				cfg := equivCfg[core.Pointer](p, g.Clone(), seed)
				tgt := mk(p, cfg)
				rep := faults.RunSchedule[core.Pointer](p, tgt, sched, faults.SMMChecker, faults.Options{BoundFactor: 1, BoundSlack: 1})
				tgt.Close()
				return rep, append([]core.Pointer(nil), cfg.States...)
			}
			repR, stR := run(NewReferenceFaultLockstep[core.Pointer])
			for _, k := range shardCounts {
				k := k
				repS, stS := run(func(p core.Protocol[core.Pointer], cfg core.Config[core.Pointer]) *FaultLockstep[core.Pointer] {
					return NewShardedFaultLockstep(p, cfg, k)
				})
				if !reflect.DeepEqual(repS, repR) {
					t.Fatalf("trial %d shards=%d: reports diverged:\nsharded:   %+v\nreference: %+v", trial, k, repS, repR)
				}
				if !reflect.DeepEqual(stS, stR) {
					t.Fatalf("trial %d shards=%d: final states diverged:\nsharded:   %v\nreference: %v", trial, k, stS, stR)
				}
			}
		}
	})
}

// Direct topology and state edits between Run calls must be absorbed by
// the version self-detection and the Run-entry re-dirty at every shard
// count.
func TestShardedSurvivesExternalMutation(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(208))
		for trial := 0; trial < 8; trial++ {
			n := 12 + rng.Intn(12)
			p := 0.3
			gseed := rng.Int63()
			mk := func() *graph.Graph {
				return graph.RandomConnected(n, p, rand.New(rand.NewSource(gseed)))
			}
			seed := int64(trial)
			churnOn := func(g *graph.Graph, l *Lockstep[core.Pointer]) {
				churn := rand.New(rand.NewSource(seed + 900))
				for j := 0; j < 3; j++ {
					u := graph.NodeID(churn.Intn(g.N()))
					v := graph.NodeID(churn.Intn(g.N()))
					if u == v {
						continue
					}
					if g.HasEdge(u, v) {
						g.RemoveEdge(u, v)
					} else {
						g.AddEdge(u, v)
					}
				}
				core.NormalizeSMM(l.Config())
				corrupt := graph.NodeID(churn.Intn(g.N()))
				l.Config().States[corrupt] = core.PointAt(graph.NodeID((int(corrupt) + 1) % g.N()))
				core.NormalizeSMM(l.Config())
			}

			gr := mk()
			ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), gr, seed))
			r0 := ref.Run(gr.N() + 2)
			churnOn(gr, ref)
			r1 := ref.Run(gr.N() + 2)

			for _, k := range shardCounts {
				gs := mk()
				sh := NewShardedLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), gs, seed), k)
				if got := sh.Run(gs.N() + 2); got != r0 {
					t.Fatalf("trial %d shards=%d: initial runs diverged: %v vs %v", trial, k, got, r0)
				}
				churnOn(gs, sh)
				if got := sh.Run(gs.N() + 2); got != r1 {
					t.Fatalf("trial %d shards=%d: post-churn runs diverged: %v vs %v", trial, k, got, r1)
				}
				for v := range sh.cfg.States {
					if sh.cfg.States[v] != ref.cfg.States[v] {
						t.Fatalf("trial %d shards=%d: node %d diverged after churn", trial, k, v)
					}
				}
				sh.Close()
			}
		}
	})
}

// The SetShards seam must shard frontier-engine executors built after it
// and leave reference engines untouched — that pair is what lets the
// harness and soak twins replay whole campaigns through the sharded
// engine without plumbing a shard count through every constructor.
func TestSetShardsSeam(t *testing.T) {
	g := graph.Path(32)
	SetShards(4)
	defer SetShards(1)
	l := NewLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, 1))
	if len(l.shards) != 4 {
		t.Fatalf("seam did not shard the frontier engine: %d shards", len(l.shards))
	}
	ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, 1))
	if len(ref.shards) != 1 {
		t.Fatal("seam sharded the reference engine")
	}
	ft := NewFaultLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, 1))
	if len(ft.l.shards) != 4 {
		t.Fatal("seam did not shard the fault adapter")
	}
	// The reference fault adapter stays a full scan under the seam: every
	// round evaluates all n nodes, stable or not.
	calls := 0
	rf := NewReferenceFaultLockstep[bool](countMoves[bool]{core.NewSMI(), &calls}, equivCfg[bool](core.NewSMI(), g, 1))
	for r := 0; r < 5; r++ {
		calls = 0
		rf.Step()
		if calls != g.N() {
			t.Fatalf("round %d: reference fault adapter evaluated %d of %d nodes", r, calls, g.N())
		}
	}
	// Clamping: more shards than nodes collapses to the node count, and a
	// single-node graph runs one shard rather than an empty range.
	tiny := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), graph.Path(3), 1), 8)
	if len(tiny.shards) != 3 {
		t.Fatalf("shard clamp to node count failed: %d shards", len(tiny.shards))
	}
	one := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), graph.Path(1), 1), 8)
	if len(one.shards) != 1 {
		t.Fatalf("single-node graph should run one shard, got %d", len(one.shards))
	}
}

// countMoves counts Move calls; like opaque it hides every fast path.
type countMoves[S comparable] struct {
	p     core.Protocol[S]
	calls *int
}

func (c countMoves[S]) Name() string { return c.p.Name() }
func (c countMoves[S]) Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) S {
	return c.p.Random(id, nbrs, rng)
}
func (c countMoves[S]) Move(v core.View[S]) (S, bool) {
	*c.calls++
	return c.p.Move(v)
}

// Steady-state rounds must allocate nothing at any shard count: the
// zero-allocation property the million-node benchmarks depend on, pinned
// here so it cannot regress silently. Both quiet rounds and active
// fault-recovery rounds are measured after the buffers have warmed up.
func TestShardedStepZeroAllocSteadyState(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		g := graph.RandomConnected(256, 0.03, rand.New(rand.NewSource(42)))
		for _, k := range []int{1, 4} {
			p := core.NewSMM()
			cfg := equivCfg[core.Pointer](p, g, 42)
			l := NewShardedLockstep[core.Pointer](p, cfg, k)
			if res := l.Run(g.N() + 2); !res.Stable {
				t.Fatalf("shards=%d: did not stabilize: %v", k, res)
			}
			if avg := testing.AllocsPerRun(50, func() { l.Step() }); avg != 0 {
				t.Fatalf("shards=%d: quiet round allocates: %v allocs/op", k, avg)
			}
			victim := graph.NodeID(17)
			if avg := testing.AllocsPerRun(50, func() {
				cfg.States[victim] = core.Null
				l.DirtyState(victim)
				for l.Step() > 0 {
				}
			}); avg != 0 {
				t.Fatalf("shards=%d: active recovery allocates: %v allocs/op", k, avg)
			}
			l.Close()
		}
	})
}

// A link flip must cost what the protocol's own repair costs: removing
// and re-adding an edge of a converged configuration edits both rows in
// place and dirties two closed neighborhoods, allocating nothing.
func TestSetLinkPairAllocatesNothing(t *testing.T) {
	g, _ := graph.RandomUnitDisk(1024, 0.05, rand.New(rand.NewSource(42)))
	p := core.NewSMM()
	f := NewFaultLockstep(p, equivCfg(p, g, 1))
	if res := f.Lockstep().Run(g.N() + 2); !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	e := g.Edges()[g.M()/2]
	if avg := testing.AllocsPerRun(20, func() {
		f.SetLink(e, false)
		f.SetLink(e, true)
	}); avg != 0 {
		t.Fatalf("SetLink remove+add allocates %v times", avg)
	}
}

// Building the default engine and converging it must fit the allocation
// budget the BenchmarkLarge_* gate holds it to: the engine, next, moved,
// the shard slice, one frontier, one drain buffer, and a one-shard
// partition (struct and starts) — eight in all.
func TestLockstepConstructAndRunAllocBudget(t *testing.T) {
	g := graph.RandomConnected(1024, 8.0/1024, rand.New(rand.NewSource(42)))
	p := core.NewSMI()
	cfg := equivCfg[bool](p, g, 1)
	start := append([]bool(nil), cfg.States...)
	avg := testing.AllocsPerRun(10, func() {
		copy(cfg.States, start)
		if res := NewLockstep[bool](p, cfg).Run(g.N() + 2); !res.Stable {
			t.Fatalf("did not stabilize: %v", res)
		}
	})
	if avg > 8 {
		t.Fatalf("NewLockstep + Run allocates %v times, budget 8", avg)
	}
}
