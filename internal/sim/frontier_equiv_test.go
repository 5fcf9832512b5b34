package sim

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/protocols"
)

// This file is the metamorphic equivalence suite for the active-frontier
// scheduler: the frontier engine and the full-scan reference engine must
// produce byte-identical executions — per-round move counts, per-round
// state vectors, Result values — on arbitrary graphs, arbitrary initial
// configurations, and arbitrary fault schedules. Any divergence means a
// dirty-set rule is missing (see DESIGN.md, "Active-frontier
// scheduling"). Every test runs with dense rounds never, at the default
// threshold and after every moving round (eachDense).

// stepCompare drives a frontier engine and a reference engine in
// lockstep for rounds rounds, failing on the first divergence in move
// counts or state vectors. It keeps stepping after quiescence to check
// that an empty frontier and a quiet full scan agree too.
func stepCompare[S comparable](t *testing.T, tag string, fr, ref *Lockstep[S], rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		mf, mr := fr.Step(), ref.Step()
		if mf != mr {
			t.Fatalf("%s: round %d: frontier moved %d, reference %d", tag, r, mf, mr)
		}
		for v := range fr.cfg.States {
			if fr.cfg.States[v] != ref.cfg.States[v] {
				t.Fatalf("%s: round %d: node %d: frontier %v, reference %v",
					tag, r, v, fr.cfg.States[v], ref.cfg.States[v])
			}
		}
	}
	if fr.Rounds() != ref.Rounds() || fr.Moves() != ref.Moves() {
		t.Fatalf("%s: counters diverged: frontier (%d rounds, %d moves), reference (%d, %d)",
			tag, fr.Rounds(), fr.Moves(), ref.Rounds(), ref.Moves())
	}
}

func equivCfg[S comparable](p core.Protocol[S], g *graph.Graph, stateSeed int64) core.Config[S] {
	cfg := core.NewConfig[S](g)
	cfg.Randomize(p, rand.New(rand.NewSource(stateSeed)))
	return cfg
}

func TestFrontierMatchesReferenceSMM(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(100))
		for trial := 0; trial < 25; trial++ {
			g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
			seed := int64(trial)
			fr := NewLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
			ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
			stepCompare(t, "SMM", fr, ref, g.N()+4)
		}
	})
}

func TestFrontierMatchesReferenceSMI(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 25; trial++ {
			g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
			seed := int64(trial)
			fr := NewLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
			ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
			stepCompare(t, "SMI", fr, ref, g.N()+4)
		}
	})
}

// opaque hides every optional fast-path interface of a protocol (batch
// evaluator, shard kernel) and strips the direct-read state vector from
// each view, forcing executors onto the per-node closure path with the
// generic commit and mark — the third evaluation path, which the batch
// kernels must match move for move and state for state.
type opaque[S comparable] struct{ p core.Protocol[S] }

func (o opaque[S]) Name() string { return o.p.Name() }
func (o opaque[S]) Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) S {
	return o.p.Random(id, nbrs, rng)
}
func (o opaque[S]) Move(v core.View[S]) (S, bool) {
	v.Peers = nil
	return o.p.Move(v)
}

// The batch kernels (MoveBatch + CommitBatch + MarkBatch), the
// direct-read Move path, and the closure-read Move path are three
// implementations of the same rules; this pins all three to each other
// on both engines.
func TestBatchKernelsMatchClosurePath(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(108))
		for trial := 0; trial < 20; trial++ {
			g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
			seed := int64(trial)

			batch := NewLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
			closure := NewLockstep[core.Pointer](opaque[core.Pointer]{core.NewSMM()}, equivCfg[core.Pointer](core.NewSMM(), g, seed))
			stepCompare(t, "SMM batch vs closure", batch, closure, g.N()+4)

			refClosure := NewReferenceLockstep[core.Pointer](opaque[core.Pointer]{core.NewSMM()}, equivCfg[core.Pointer](core.NewSMM(), g, seed))
			batch2 := NewLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
			stepCompare(t, "SMM batch vs full-scan closure", batch2, refClosure, g.N()+4)

			bi := NewLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
			ci := NewReferenceLockstep[bool](opaque[bool]{core.NewSMI()}, equivCfg[bool](core.NewSMI(), g, seed))
			stepCompare(t, "SMI batch vs full-scan closure", bi, ci, g.N()+4)
		}
	})
}

// RandMIS draws from per-node generators only while a rule guard holds,
// so a skipped (provably inactive) evaluation consumes no randomness —
// the two engines must replay identical coin-flip streams.
func TestFrontierMatchesReferenceRandMIS(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 15; trial++ {
			g := graph.RandomConnected(2+rng.Intn(30), 0.1+rng.Float64()*0.3, rng)
			seed := int64(trial)
			pf := protocols.NewRandMIS(g.N(), seed)
			pr := protocols.NewRandMIS(g.N(), seed)
			fr := NewLockstep[bool](pf, equivCfg[bool](pf, g, seed))
			ref := NewReferenceLockstep[bool](pr, equivCfg[bool](pr, g, seed))
			stepCompare(t, "RandMIS", fr, ref, 6*g.N()+10)
		}
	})
}

// Refined(SMM) exercises the aux-change-while-inactive case: the wrapper
// clears Want with moved == false, so the dirty rules must key on state
// changes, not on the active flag alone. It also draws Prio only for
// privileged nodes, so the per-node streams must stay aligned.
func TestFrontierMatchesReferenceRefined(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		for trial := 0; trial < 15; trial++ {
			g := graph.RandomConnected(2+rng.Intn(25), 0.1+rng.Float64()*0.3, rng)
			seed := int64(trial)
			pf := protocols.Refine[core.Pointer](core.NewSMM(), g.N(), seed)
			pr := protocols.Refine[core.Pointer](core.NewSMM(), g.N(), seed)
			fr := NewLockstep(pf, equivCfg[protocols.RefState[core.Pointer]](pf, g, seed))
			ref := NewReferenceLockstep(pr, equivCfg[protocols.RefState[core.Pointer]](pr, g, seed))
			stepCompare(t, "Refined(SMM)", fr, ref, 8*g.N()+10)
		}
	})
}

// Replaying a generated fault schedule on the frontier fault adapter and
// on the reference adapter must produce deeply equal monitor reports —
// the soak harness's observable output — and identical final states.
// This exercises every dirty rule at once: state corruption, link flips
// with repair, beacon-loss pins, view freezes, and pin expiry.
func TestFrontierFaultScheduleMatchesReference(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(106))
		for trial := 0; trial < 12; trial++ {
			n := 6 + rng.Intn(14)
			g := graph.RandomConnected(n, 0.3, rng)
			seed := int64(trial) * 7717
			sched := faults.Generate(seed, g, faults.GenParams{Events: 6, Start: n + 2})

			run := func(mk func(core.Protocol[core.Pointer], core.Config[core.Pointer]) *FaultLockstep[core.Pointer]) (faults.Report, []core.Pointer) {
				p := core.NewSMM()
				cfg := equivCfg[core.Pointer](p, g.Clone(), seed)
				tgt := mk(p, cfg)
				rep := faults.RunSchedule[core.Pointer](p, tgt, sched, faults.SMMChecker, faults.Options{BoundFactor: 1, BoundSlack: 1})
				return rep, append([]core.Pointer(nil), cfg.States...)
			}
			repF, stF := run(NewFaultLockstep[core.Pointer])
			repR, stR := run(NewReferenceFaultLockstep[core.Pointer])
			if !reflect.DeepEqual(repF, repR) {
				t.Fatalf("trial %d: reports diverged:\nfrontier:  %+v\nreference: %+v", trial, repF, repR)
			}
			if !reflect.DeepEqual(stF, stR) {
				t.Fatalf("trial %d: final states diverged:\nfrontier:  %v\nreference: %v", trial, stF, stR)
			}
		}
	})
}

// Callers may mutate the topology and the states directly between Run
// calls on the same executor (the harness's churn-and-restabilize
// pattern). The version check and the Run-entry re-dirty must absorb
// both kinds of edit.
func TestFrontierSurvivesExternalMutation(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(107))
		for trial := 0; trial < 10; trial++ {
			g1 := graph.RandomConnected(12+rng.Intn(12), 0.3, rng)
			g2 := g1.Clone()
			seed := int64(trial)
			fr := NewLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g1, seed))
			ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g2, seed))
			if r1, r2 := fr.Run(g1.N()+2), ref.Run(g2.N()+2); r1 != r2 {
				t.Fatalf("trial %d: initial runs diverged: %v vs %v", trial, r1, r2)
			}
			// External churn: flip a few edges and corrupt a state on both
			// copies identically, then re-run.
			churn := rand.New(rand.NewSource(seed + 500))
			for k := 0; k < 3; k++ {
				u := graph.NodeID(churn.Intn(g1.N()))
				v := graph.NodeID(churn.Intn(g1.N()))
				if u == v {
					continue
				}
				if g1.HasEdge(u, v) {
					g1.RemoveEdge(u, v)
					g2.RemoveEdge(u, v)
				} else {
					g1.AddEdge(u, v)
					g2.AddEdge(u, v)
				}
			}
			core.NormalizeSMM(fr.Config())
			core.NormalizeSMM(ref.Config())
			corrupt := graph.NodeID(churn.Intn(g1.N()))
			fr.Config().States[corrupt] = core.PointAt(graph.NodeID((int(corrupt) + 1) % g1.N()))
			ref.Config().States[corrupt] = core.PointAt(graph.NodeID((int(corrupt) + 1) % g2.N()))
			core.NormalizeSMM(fr.Config())
			core.NormalizeSMM(ref.Config())
			if r1, r2 := fr.Run(g1.N()+2), ref.Run(g2.N()+2); r1 != r2 {
				t.Fatalf("trial %d: post-churn runs diverged: %v vs %v", trial, r1, r2)
			}
			for v := range fr.cfg.States {
				if fr.cfg.States[v] != ref.cfg.States[v] {
					t.Fatalf("trial %d: node %d diverged after churn", trial, v)
				}
			}
		}
	})
}

// An edit made straight on the graph and then a hooked flip, both in
// one inter-round window: DirtyEdge reports only the second edge, so
// the executor must notice the version moved by two and evaluate
// everyone. Four isolated nodes sit at SMI's fixed point (all in);
// linking 0–1 behind the executor's back makes two adjacent members.
func TestUnhookedEditBeforeHookedFlipIsEvaluated(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		g := graph.New(4)
		cfg := core.NewConfig[bool](g)
		f := NewFaultLockstep[bool](core.NewSMI(), cfg)
		if res := f.Lockstep().Run(10); !res.Stable {
			t.Fatalf("did not stabilize: %v", res)
		}
		g.AddEdge(0, 1)
		f.SetLink(graph.NewEdge(2, 3), true)
		res, err := f.Lockstep().ConvergeCtx(context.Background(), 10)
		if err != nil || !res.Stable {
			t.Fatalf("ConvergeCtx: %v err=%v", res, err)
		}
		if err := faults.SMIChecker(cfg); err != nil {
			t.Fatalf("stable but not legitimate: %v", err)
		}
	})
}

// Decoding a graph over a live one replaces the whole edge set behind
// the executor's back, so the version must move past the value the
// executor recorded even when the new graph took as many edits to build:
// Star(4) and Path(4) both take three. SMI's fixed point on the path,
// [F T F T], leaves node 2 undominated on the star.
func TestUnmarshalOverLiveGraphIsEvaluated(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		g := graph.Path(4)
		cfg := core.NewConfig[bool](g)
		l := NewLockstep[bool](core.NewSMI(), cfg)
		if res := l.Run(10); !res.Stable {
			t.Fatalf("did not stabilize: %v", res)
		}
		if want := []bool{false, true, false, true}; !reflect.DeepEqual(cfg.States, want) {
			t.Fatalf("path fixed point %v, want %v", cfg.States, want)
		}
		data, err := json.Marshal(graph.Star(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, g); err != nil {
			t.Fatal(err)
		}
		res, err := l.ConvergeCtx(context.Background(), 10)
		if err != nil || !res.Stable || res.Rounds == 0 {
			t.Fatalf("ConvergeCtx: %v err=%v, want a stable run with moves", res, err)
		}
		if err := faults.SMIChecker(cfg); err != nil {
			t.Fatalf("stable but not legitimate on the star: %v", err)
		}
	})
}

// A lost link repairs the pointers across it: SetLink removing a
// matched pair's edge leaves both endpoints Null, so the isolated pair
// is already quiet.
func TestApplyEventsRepairsPointers(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		cfg := core.Config[core.Pointer]{G: graph.Path(2), States: []core.Pointer{core.PointAt(1), core.PointAt(0)}}
		f := NewFaultLockstep[core.Pointer](core.NewSMM(), cfg)
		f.SetLink(graph.NewEdge(0, 1), false)
		if cfg.States[0] != core.Null || cfg.States[1] != core.Null {
			t.Fatalf("states after link loss: %v", cfg.States)
		}
		if moved := f.Step(); moved != 0 {
			t.Fatalf("isolated pair still active: %d moved", moved)
		}
	})
}

// Two frontier engines share one graph, and every flip goes through the
// first one's fault adapter: it edits the shared row store under the
// second engine, which heard of no edit. Each must still land on what a
// reference engine does with the same edits — the first with its hooked
// flips, the second with the edits made straight on its graph. The
// second engine, at two shards, converges only after every other flip,
// so it also meets two edits in one window.
func TestSharedSnapshotFlipsMatchReference(t *testing.T) {
	eachDense(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(108))
		for trial := 0; trial < 8; trial++ {
			n := 16 + rng.Intn(32)
			g := graph.RandomConnected(n, 0.15, rng)
			gA, gB := g.Clone(), g.Clone()
			p := core.NewSMM()
			seed := int64(trial)
			fa := NewFaultLockstep(p, equivCfg(p, g, seed))
			fb := NewShardedLockstep(p, equivCfg(p, g, seed+1), 2)
			refA := NewReferenceFaultLockstep(p, equivCfg(p, gA, seed))
			refB := NewReferenceLockstep(p, equivCfg(p, gB, seed+1))
			converge := func(tag string, fr, ref *Lockstep[core.Pointer]) {
				t.Helper()
				r1, err1 := fr.ConvergeCtx(context.Background(), 4*n)
				r2, err2 := ref.ConvergeCtx(context.Background(), 4*n)
				if err1 != nil || err2 != nil || r1 != r2 || !r1.Stable {
					t.Fatalf("trial %d %s: frontier %v (%v), reference %v (%v)", trial, tag, r1, err1, r2, err2)
				}
				if !reflect.DeepEqual(fr.cfg.States, ref.cfg.States) {
					t.Fatalf("trial %d %s: states diverged:\nfrontier:  %v\nreference: %v", trial, tag, fr.cfg.States, ref.cfg.States)
				}
			}
			fa.Lockstep().Run(4 * n)
			refA.Lockstep().Run(4 * n)
			fb.Run(4 * n)
			refB.Run(4 * n)
			for k := 0; k < 12; k++ {
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				e, present := graph.NewEdge(u, v), !g.HasEdge(u, v)
				fa.SetLink(e, present)
				refA.SetLink(e, present)
				if present {
					gB.AddEdge(e.U, e.V)
				} else {
					gB.RemoveEdge(e.U, e.V)
				}
				converge("hooked", fa.Lockstep(), refA.Lockstep())
				if k%2 == 1 {
					converge("unhooked", fb, refB)
				}
			}
			fb.Close()
		}
	})
}
