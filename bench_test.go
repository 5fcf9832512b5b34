// Benchmarks regenerating every experiment table (E1–E10) plus
// micro-benchmarks of the hot paths and ablations of SMM's rule-policy
// choices. Run with:
//
//	go test -bench=. -benchmem
//
// The BenchmarkE* benches execute one full experiment trial per
// iteration, so their ns/op is the cost of reproducing one data point of
// the corresponding table; the harness (cmd/experiments) aggregates the
// statistics the tables report.
package selfstab

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"selfstab/internal/beacon"
	"selfstab/internal/core"
	"selfstab/internal/daemon"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/harness"
	"selfstab/internal/modelcheck"
	"selfstab/internal/protocols"
	"selfstab/internal/sim"
)

// benchGraph returns the standard benchmark topology: a 64-node sparse
// random connected graph, regenerated identically each call.
func benchGraph() *graph.Graph {
	return graph.RandomConnected(64, 0.08, rand.New(rand.NewSource(42)))
}

func benchSMMConfig(g *graph.Graph, seed int64) core.Config[core.Pointer] {
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(core.NewSMM(), rand.New(rand.NewSource(seed)))
	return cfg
}

// BenchmarkE1_SMMConvergence measures one Theorem 1 trial: random state
// to maximal matching on the standard graph.
func BenchmarkE1_SMMConvergence(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), benchSMMConfig(g, int64(i)))
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE2_TypeCensus measures the Figure 2/3 instrumentation: a full
// run with per-round classification and transition recording.
func BenchmarkE2_TypeCensus(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchSMMConfig(g, int64(i))
		before := core.ClassifySMM(cfg)
		var m core.TransitionMatrix
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
		l.RunHook(g.N()+2, func(_ int, c core.Config[core.Pointer]) {
			after := core.ClassifySMM(c)
			m.Record(before, after)
			before = after
		})
		if len(m.Violations()) != 0 {
			b.Fatal("diagram violation")
		}
	}
}

// BenchmarkE3_MatchingGrowth measures a run instrumented with per-round
// matching extraction (Lemmas 9–10).
func BenchmarkE3_MatchingGrowth(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), benchSMMConfig(g, int64(i)))
		prev := 0
		l.RunHook(g.N()+2, func(_ int, c core.Config[core.Pointer]) {
			prev = 2 * len(core.MatchingOf(c))
		})
		_ = prev
	}
}

// BenchmarkE4_Counterexample measures 100 rounds of the oscillating
// arbitrary-proposal variant on C4.
func BenchmarkE4_Counterexample(b *testing.B) {
	g := graph.Cycle(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.NewConfig[core.Pointer](g)
		for j := range cfg.States {
			cfg.States[j] = core.Null
		}
		l := sim.NewLockstep[core.Pointer](core.NewSMMArbitrary(), cfg)
		if res := l.Run(100); res.Stable {
			b.Fatal("counterexample stabilized")
		}
	}
}

// BenchmarkE5_SMIConvergence measures one Theorem 2 trial.
func BenchmarkE5_SMIConvergence(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[bool](core.NewSMI(), cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE6_SMIWaveWorstCase measures the descending-ID path — the
// adversarial workload of the Theorem 2 wave argument.
func BenchmarkE6_SMIWaveWorstCase(b *testing.B) {
	n := 128
	perm := make([]graph.NodeID, n)
	for i := range perm {
		perm[i] = graph.NodeID(n - 1 - i)
	}
	g := graph.Path(n).Relabel(perm)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.NewConfig[bool](g)
		l := sim.NewLockstep[bool](core.NewSMI(), cfg)
		if res := l.Run(n + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE7_SMM and BenchmarkE7_RefinedHsuHuang are the two sides of
// the Section 3 comparison on identical graphs; the ns/op ratio mirrors
// the rounds ratio of table E7.
func BenchmarkE7_SMM(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), benchSMMConfig(g, int64(i)))
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

func BenchmarkE7_RefinedHsuHuang(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ref := protocols.Refine[core.Pointer](protocols.NewHsuHuang(), g.N(), int64(i))
		cfg := core.NewConfig[protocols.RefState[core.Pointer]](g)
		cfg.Randomize(ref, rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[protocols.RefState[core.Pointer]](ref, cfg)
		if res := l.Run(500 * g.N()); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE8_Restabilize measures stabilize → churn → re-stabilize.
func BenchmarkE8_Restabilize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := graph.RandomConnected(64, 0.08, rng)
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(core.NewSMM(), rng)
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
		NewChurn(g, rng).Apply(4)
		core.NormalizeSMM(cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE9_BeaconModel measures a full discrete-event run with jitter
// and delays on the standard graph.
func BenchmarkE9_BeaconModel(b *testing.B) {
	g := benchGraph()
	prm := beacon.DefaultParams()
	prm.Jitter = 0.2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		states := make([]core.Pointer, g.N())
		for v := range states {
			states[v] = core.NewSMM().Random(graph.NodeID(v), g.Neighbors(graph.NodeID(v)), rng)
		}
		net := beacon.NewNetwork[core.Pointer](core.NewSMM(), g.Clone(), states, prm, rng)
		if res := net.Run(float64(50*g.N()), 6); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE10_Coloring, _RandMIS and _HsuHuangCentral cover the
// extension rows of table E10.
func BenchmarkE10_Coloring(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := protocols.NewColoring()
		cfg := core.NewConfig[int](g)
		cfg.Randomize(p, rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[int](p, cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

func BenchmarkE10_RandMIS(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := protocols.NewRandMIS(g.N(), int64(i))
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(p, rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[bool](p, cfg)
		if res := l.Run(1000 * g.N()); !res.Stable {
			b.Fatal(res)
		}
	}
}

func BenchmarkE10_SpanningTree(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := protocols.NewSpanningTree(g.N())
		cfg := core.NewConfig[protocols.TreeState](g)
		cfg.Randomize(p, rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[protocols.TreeState](p, cfg)
		if res := l.Run(5*g.N() + 10); !res.Stable {
			b.Fatal(res)
		}
	}
}

func BenchmarkE10_HsuHuangCentral(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		p := protocols.NewHsuHuang()
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(p, rng)
		r := daemon.NewRunner[core.Pointer](p, cfg, daemon.NewCentral[core.Pointer](daemon.PickRandom, rng))
		if res := r.Run(50 * g.N() * g.N()); !res.Stable {
			b.Fatal(res)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkRoundSMM measures a single synchronous round on the standard
// graph (the inner loop of every experiment).
func BenchmarkRoundSMM(b *testing.B) {
	g := benchGraph()
	cfg := benchSMMConfig(g, 1)
	l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

// BenchmarkRoundSMI measures a single SMI round.
func BenchmarkRoundSMI(b *testing.B) {
	g := benchGraph()
	cfg := core.NewConfig[bool](g)
	cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(1)))
	l := sim.NewLockstep[bool](core.NewSMI(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

// BenchmarkRoundSMMLarge measures one SMM round on a 4096-node graph.
func BenchmarkRoundSMMLarge(b *testing.B) {
	g := graph.RandomConnected(4096, 0.002, rand.New(rand.NewSource(42)))
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(core.NewSMM(), rand.New(rand.NewSource(1)))
	l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

// BenchmarkClassify measures the six-type classification.
func BenchmarkClassify(b *testing.B) {
	g := benchGraph()
	cfg := benchSMMConfig(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ClassifySMM(cfg)
	}
}

// --- Ablations of SMM's policy choices ---

// BenchmarkAblationProposeMinID / ProposeMaxID compare the two
// consistent proposal orders (both provably stabilize; the bench shows
// the choice is performance-neutral).
func BenchmarkAblationProposeMinID(b *testing.B) {
	benchProposal(b, core.ProposeMinID)
}

func BenchmarkAblationProposeMaxID(b *testing.B) {
	benchProposal(b, core.ProposeMaxID)
}

func benchProposal(b *testing.B, pol core.ProposalPolicy) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &core.SMM{Proposal: pol}
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(p, rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[core.Pointer](p, cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkAblationAcceptMaxID exercises the R1 accept-policy knob.
func BenchmarkAblationAcceptMaxID(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &core.SMM{Accept: core.AcceptMaxID}
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(p, rand.New(rand.NewSource(int64(i))))
		l := sim.NewLockstep[core.Pointer](p, cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

// BenchmarkE11_ExhaustiveSMM model-checks all 2187 configurations of SMM
// on C7 (one table-E11 cell per iteration).
func BenchmarkE11_ExhaustiveSMM(b *testing.B) {
	g := graph.Cycle(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := modelcheck.Explore[core.Pointer](core.NewSMM(), g, modelcheck.SMMDomain, 1<<20, nil)
		if err != nil || rep.Divergent != 0 {
			b.Fatalf("rep=%v err=%v", rep, err)
		}
	}
}

// BenchmarkE11_ExhaustiveSMI model-checks all 4096 configurations of SMI
// on C12.
func BenchmarkE11_ExhaustiveSMI(b *testing.B) {
	g := graph.Cycle(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := modelcheck.Explore[bool](core.NewSMI(), g, modelcheck.SMIDomain, 1<<20, nil)
		if err != nil || rep.Divergent != 0 {
			b.Fatalf("rep=%v err=%v", rep, err)
		}
	}
}

// BenchmarkHarnessQuick runs the entire quick experiment sweep — the
// one-number regression check for the whole reproduction.
func BenchmarkHarnessQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if failed, err := harness.RunAll(harness.QuickOptions(), io.Discard, false); err != nil || failed != 0 {
			b.Fatalf("failed=%d err=%v", failed, err)
		}
	}
}

// BenchmarkHarnessE1Workers1/4 measure one full E1 table with the cell
// pool pinned to 1 vs. 4 workers. The tables are byte-identical by
// construction (per-cell derived seeds); the ratio is the harness-level
// parallel speedup. A single-core machine shows only pool overhead —
// the speedup needs GOMAXPROCS > 1.
func BenchmarkHarnessE1Workers1(b *testing.B) { benchHarnessE1(b, 1) }
func BenchmarkHarnessE1Workers4(b *testing.B) { benchHarnessE1(b, 4) }

func benchHarnessE1(b *testing.B, workers int) {
	opt := harness.QuickOptions()
	opt.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tbl := harness.E1SMMConvergence(opt); !tbl.Passed {
			b.Fatal("E1 failed")
		}
	}
}

// BenchmarkExploreSharded measures the sharded model checker on SMM/C9
// (19683 configurations) with 4 workers against the serial
// BenchmarkE11_ExhaustiveSMM baseline shape.
func BenchmarkExploreSharded(b *testing.B) {
	g := graph.Cycle(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := modelcheck.ExploreWorkers[core.Pointer](core.NewSMM(), g, modelcheck.SMMDomain, 1<<20, nil, 4)
		if err != nil || rep.Divergent != 0 {
			b.Fatalf("rep=%v err=%v", rep, err)
		}
	}
}

// --- Large-n convergence benchmarks ---
//
// The BenchmarkLarge_* family is the frontier-scheduler workload: full
// E1/E5-style convergence trials on graphs one to two orders of
// magnitude past the 64-node standard graph, on both sparse random
// topologies (expected degree ~8) and geometric unit-disk graphs (the
// paper's ad hoc radio model). Late rounds move only a handful of
// nodes, so the gap between full-scan and active-frontier scheduling
// grows with n here. `make bench-json` records exactly this family in
// BENCH_1.json; `make bench-diff` guards it against regression.

// largeSparse returns a connected sparse random graph with expected
// degree ~8, regenerated identically each call.
func largeSparse(n int) *graph.Graph {
	return graph.RandomConnected(n, 8.0/float64(n), rand.New(rand.NewSource(42)))
}

// largeDisk returns a connected random unit-disk graph on n nodes.
func largeDisk(n int) *graph.Graph {
	g, _ := graph.RandomUnitDisk(n, 0.02, rand.New(rand.NewSource(42)))
	return g
}

func benchLargeSMM(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchSMMConfig(g, int64(i))
		b.StartTimer()
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

func benchLargeSMI(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(int64(i))))
		b.StartTimer()
		l := sim.NewLockstep[bool](core.NewSMI(), cfg)
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

func BenchmarkLarge_SMMSparse1024(b *testing.B) { benchLargeSMM(b, largeSparse(1024)) }
func BenchmarkLarge_SMMSparse4096(b *testing.B) { benchLargeSMM(b, largeSparse(4096)) }
func BenchmarkLarge_SMMDisk1024(b *testing.B)   { benchLargeSMM(b, largeDisk(1024)) }
func BenchmarkLarge_SMMDisk4096(b *testing.B)   { benchLargeSMM(b, largeDisk(4096)) }
func BenchmarkLarge_SMISparse1024(b *testing.B) { benchLargeSMI(b, largeSparse(1024)) }
func BenchmarkLarge_SMISparse4096(b *testing.B) { benchLargeSMI(b, largeSparse(4096)) }
func BenchmarkLarge_SMIDisk1024(b *testing.B)   { benchLargeSMI(b, largeDisk(1024)) }

// BenchmarkLarge_CheckSMMDisk4096 times the SMM legitimacy check the
// service runs after every epoch, on a converged 4096-node unit-disk
// configuration. It must not allocate: the pinned allocs/op gate holds
// it at 0.
func BenchmarkLarge_CheckSMMDisk4096(b *testing.B) {
	g := largeDisk(4096)
	cfg := benchSMMConfig(g, 1)
	if res := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg).Run(g.N() + 2); !res.Stable {
		b.Fatal(res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := faults.SMMChecker(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLarge_CheckSMIDisk4096 is the SMI twin of the SMM check row:
// the legitimacy check on a converged 4096-node unit-disk
// configuration, held at 0 allocs/op by the pinned gate.
func BenchmarkLarge_CheckSMIDisk4096(b *testing.B) {
	g := largeDisk(4096)
	cfg := core.NewConfig[bool](g)
	cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(1)))
	if res := sim.NewLockstep[bool](core.NewSMI(), cfg).Run(2*g.N() + 2); !res.Stable {
		b.Fatal(res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := faults.SMIChecker(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLarge_LocalCheckSMMDisk4096 times the service's per-epoch
// check against the full scan of BenchmarkLarge_CheckSMMDisk4096: each
// iteration is one mutation's worth of work on a converged 4096-node
// unit-disk SMM configuration, a flip of one edge through
// FaultLockstep.SetLink (alternately cut and restored) reported to the
// checker, a re-convergence and the local check, which must not fall
// back to the full scan. It must not allocate: the pinned allocs/op
// gate holds it at 0.
func BenchmarkLarge_LocalCheckSMMDisk4096(b *testing.B) {
	benchLocalCheck(b, core.NewSMM(), benchSMMConfig(largeDisk(4096), 1), faults.NewSMMLocalChecker())
}

// BenchmarkLarge_LocalCheckSMIDisk4096 is the SMI twin of the SMM
// local-check row.
func BenchmarkLarge_LocalCheckSMIDisk4096(b *testing.B) {
	cfg := core.NewConfig[bool](largeDisk(4096))
	cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(1)))
	benchLocalCheck(b, core.NewSMI(), cfg, faults.NewSMILocalChecker())
}

func benchLocalCheck[S comparable](b *testing.B, p core.Protocol[S], cfg core.Config[S], lc *faults.LocalChecker[S]) {
	g, bound := cfg.G, 2*cfg.G.N()+2
	f := sim.NewFaultLockstep(p, cfg)
	if res := f.Lockstep().Run(bound); !res.Stable {
		b.Fatal(res)
	}
	if err := lc.Scan(cfg); err != nil {
		b.Fatal(err)
	}
	e := g.Edges()[g.M()/2]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := g.Version()
		f.SetLink(e, i%2 == 1)
		lc.Flip(e, before, g.Version())
		if res, _ := f.Lockstep().ConvergeCtx(ctx, bound); !res.Stable {
			b.Fatal(res)
		}
		if scanned, err := lc.Check(cfg); scanned || err != nil {
			b.Fatalf("scanned %v, err %v", scanned, err)
		}
	}
}

// BenchmarkLarge_SetLinkDisk4096 times a link flap as the fault layer
// and the service apply it: SetLink removing, then re-adding, one edge
// of a converged 4096-node unit-disk SMM configuration, which edits
// both endpoints' rows in place and dirties both closed neighborhoods.
// It must not allocate: the pinned allocs/op gate holds it at 0.
func BenchmarkLarge_SetLinkDisk4096(b *testing.B) { benchSetLink(b, largeDisk(4096), 1) }

// BenchmarkLarge_SetLinkDisk4096Shards2 is the same flap pair on a
// two-shard engine: the partition is ranges only, so a flip rebuilds
// nothing and costs what it costs on one shard.
func BenchmarkLarge_SetLinkDisk4096Shards2(b *testing.B) { benchSetLink(b, largeDisk(4096), 2) }

func benchSetLink(b *testing.B, g *graph.Graph, shards int) {
	f := sim.NewShardedFaultLockstep(core.NewSMM(), benchSMMConfig(g, 1), shards)
	defer f.Close()
	if res := f.Lockstep().Run(g.N() + 2); !res.Stable {
		b.Fatal(res)
	}
	e := g.Edges()[g.M()/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SetLink(e, false)
		f.SetLink(e, true)
	}
}

// The BenchmarkShard1M_* family is the sharded executor at deliverable
// scale: one million nodes, sparse (expected degree 8) and unit-disk
// (expected degree ~10) topologies, at 1/2/4/8 shards. Each iteration
// restores the same random initial configuration and converges from
// scratch on a pre-built executor, so steady-state iterations allocate
// nothing (the first convergence, before the timer, warms the drain
// buffers and spawns the worker pool). The single-shard-vs-many ratio
// on a GOMAXPROCS=1 machine shows only barrier overhead — the near-linear speedup materializes with
// GOMAXPROCS > 1, one core per shard.

// megaSparseG/megaDiskG cache the million-node topologies: construction
// costs seconds and every shard count reuses the same graph. Benchmarks
// run sequentially, so plain lazy initialization suffices.
var (
	megaSparseG *graph.Graph
	megaDiskG   *graph.Graph
)

func megaSparse() *graph.Graph {
	if megaSparseG == nil {
		megaSparseG = graph.RandomSparseConnected(1_000_000, 8, rand.New(rand.NewSource(42)))
	}
	return megaSparseG
}

func megaDisk() *graph.Graph {
	if megaDiskG == nil {
		pts := graph.RandomPoints(1_000_000, rand.New(rand.NewSource(42)))
		// r chosen for expected degree pi*r^2*n ~ 10.
		megaDiskG = graph.UnitDiskGrid(pts, 0.0018)
	}
	return megaDiskG
}

func benchShardSMM(b *testing.B, g *graph.Graph, shards int) {
	cfg := benchSMMConfig(g, 42)
	start := append([]core.Pointer(nil), cfg.States...)
	l := sim.NewShardedLockstep[core.Pointer](core.NewSMM(), cfg, shards)
	defer l.Close()
	if res := l.Run(g.N() + 2); !res.Stable {
		b.Fatal(res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(cfg.States, start)
		b.StartTimer()
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

func benchShardSMI(b *testing.B, g *graph.Graph, shards int) {
	cfg := core.NewConfig[bool](g)
	cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(42)))
	start := append([]bool(nil), cfg.States...)
	l := sim.NewShardedLockstep[bool](core.NewSMI(), cfg, shards)
	defer l.Close()
	if res := l.Run(g.N() + 2); !res.Stable {
		b.Fatal(res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(cfg.States, start)
		b.StartTimer()
		if res := l.Run(g.N() + 2); !res.Stable {
			b.Fatal(res)
		}
	}
}

func BenchmarkShard1M_SMMSparse1(b *testing.B) { benchShardSMM(b, megaSparse(), 1) }
func BenchmarkShard1M_SMMSparse2(b *testing.B) { benchShardSMM(b, megaSparse(), 2) }
func BenchmarkShard1M_SMMSparse4(b *testing.B) { benchShardSMM(b, megaSparse(), 4) }
func BenchmarkShard1M_SMMSparse8(b *testing.B) { benchShardSMM(b, megaSparse(), 8) }
func BenchmarkShard1M_SMISparse1(b *testing.B) { benchShardSMI(b, megaSparse(), 1) }
func BenchmarkShard1M_SMISparse2(b *testing.B) { benchShardSMI(b, megaSparse(), 2) }
func BenchmarkShard1M_SMISparse4(b *testing.B) { benchShardSMI(b, megaSparse(), 4) }
func BenchmarkShard1M_SMISparse8(b *testing.B) { benchShardSMI(b, megaSparse(), 8) }
func BenchmarkShard1M_SMMDisk1(b *testing.B)   { benchShardSMM(b, megaDisk(), 1) }
func BenchmarkShard1M_SMMDisk8(b *testing.B)   { benchShardSMM(b, megaDisk(), 8) }

// BenchmarkShard1M_SetLinkDisk is the flap pair of
// BenchmarkLarge_SetLinkDisk4096 on the converged million-node disk at
// two shards: the pair reuses its slot, so each flip is O(degree) work,
// whatever the graph's size.
func BenchmarkShard1M_SetLinkDisk(b *testing.B) { benchSetLink(b, megaDisk(), 2) }

// BenchmarkShard1M_QuietRound8 is the steady-state round: the network
// has stabilized, every per-shard frontier is empty, and a Step is just
// K range drains finding nothing. This is the zero-allocation hot loop
// a long-lived million-node deployment spends almost all its time in.
func BenchmarkShard1M_QuietRound8(b *testing.B) {
	g := megaSparse()
	cfg := benchSMMConfig(g, 42)
	l := sim.NewShardedLockstep[core.Pointer](core.NewSMM(), cfg, 8)
	defer l.Close()
	if res := l.Run(g.N() + 2); !res.Stable {
		b.Fatal(res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Step() != 0 {
			b.Fatal("moved in a quiet round")
		}
	}
}
