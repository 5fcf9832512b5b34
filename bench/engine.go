package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/service"
	"selfstab/internal/sim"
)

// kit bundles what the engine code needs per protocol, built the way
// internal/service/engine.go builds a tenant's engine.
type kit[S comparable] struct {
	name  string
	p     core.Protocol[S]
	clean S // the state every node of a new tenant starts in
	check faults.Checker[S]
}

func smmKit() kit[core.Pointer] {
	return kit[core.Pointer]{service.ProtocolSMM, core.NewSMM(), core.Null, faults.SMMChecker}
}

func smiKit() kit[bool] {
	return kit[bool]{service.ProtocolSMI, core.NewSMI(), false, faults.SMIChecker}
}

// samples collects named engine-layer measurements across tenants, reps
// and engines.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// shardCounts are the engines every sweep compares: the default K=1
// frontier engine and the sharded engine at K=2, one shard per core.
var shardCounts = [2]int{1, 2}

// protocols are the protocols every sweep converges on every graph.
var protocols = []string{service.ProtocolSMM, service.ProtocolSMI}

// sweepReps is how often a traced service run converges each tenant's
// graph per protocol and engine.
const sweepReps = 3

// engineSet is the protocol-erased face of convergeSet.
type engineSet interface {
	run(i int, timed bool, tr *tracer, sm samples, res *result) time.Duration
	close()
}

func newEngineSet(protocol string, g *graph.Graph, rng *rand.Rand, sm samples) engineSet {
	if protocol == service.ProtocolSMM {
		return newConvergeSet(smmKit(), g, rng, sm)
	}
	return newConvergeSet(smiKit(), g, rng, sm)
}

// converger is one engine over the set's graph.
type converger[S comparable] struct {
	k      int
	l      *sim.Lockstep[S]
	cfg    core.Config[S]
	stamps []time.Time
}

// convergeSet converges one graph from one seeded random configuration
// with each engine of shardCounts. Every run must land on the fixed point
// of the first run, after the same rounds and moves.
type convergeSet[S comparable] struct {
	kit   kit[S]
	bound int
	start []S
	eng   [len(shardCounts)]*converger[S]
	// ref, rounds and moves are the first run's outcome.
	ref           []S
	rounds, moves int
}

func newConvergeSet[S comparable](k kit[S], g *graph.Graph, rng *rand.Rand, sm samples) *convergeSet[S] {
	start := core.NewConfig[S](g)
	start.Randomize(k.p, rng)
	s := &convergeSet[S]{kit: k, bound: boundOf(k.name, g.N()), start: start.States}
	for i, shards := range shardCounts {
		cfg := core.NewConfig[S](g)
		t0 := time.Now()
		var l *sim.Lockstep[S]
		if shards == 1 {
			l = sim.NewLockstep(k.p, cfg)
		} else {
			l = sim.NewShardedLockstep(k.p, cfg, shards)
		}
		sm.add("build.k"+strconv.Itoa(shards), ms(time.Since(t0)))
		s.eng[i] = &converger[S]{k: shards, l: l, cfg: cfg}
	}
	return s
}

func (s *convergeSet[S]) close() {
	for _, e := range s.eng {
		e.l.Close()
	}
}

// run restores the starting configuration and converges it with engine
// i, timing the Run and each round between RunHook callbacks; a warm-up
// run (timed false) adds no timing samples. The fixed point is checked
// outside the timed region: the first run's with the protocol's
// legitimacy checker, every later one for equality with it.
func (s *convergeSet[S]) run(i int, timed bool, tr *tracer, sm samples, res *result) time.Duration {
	e := s.eng[i]
	copy(e.cfg.States, s.start)
	e.stamps = e.stamps[:0]
	moves0 := e.l.Moves()
	sp := tr.begin("sim.run", span{})
	t0 := time.Now()
	r := e.l.RunHook(s.bound, func(int, core.Config[S]) { e.stamps = append(e.stamps, time.Now()) })
	took := time.Since(t0)
	tr.end(sp, "protocol", s.kit.name, "k", strconv.Itoa(e.k))
	moves := e.l.Moves() - moves0

	name := fmt.Sprintf("%s.k%d", s.kit.name, e.k)
	if timed {
		sm.add("converge."+name, ms(took))
	}
	// Tail rounds have a small frontier, so drain and barrier costs
	// dominate: rounds 6 on, or the later half of a shorter run.
	tail := max(min(5, len(e.stamps)/2), 1)
	prev := t0
	for j, st := range e.stamps {
		tr.interval("sim.round", sp, prev, st)
		switch {
		case !timed:
		case j == 0:
			sm.add("round1."+name, ms(st.Sub(prev)))
		case j >= tail:
			sm.add("tail."+name, float64(st.Sub(prev))/float64(time.Microsecond))
		}
		prev = st
	}

	res.check(r.Stable && r.Rounds <= s.bound, "%s converge: %v, bound %d", name, r, s.bound)
	if s.ref == nil {
		s.ref = slices.Clone(e.cfg.States)
		s.rounds, s.moves = r.Rounds, moves
		sm.add("rounds."+s.kit.name, float64(r.Rounds))
		sm.add("moves."+s.kit.name, float64(moves))
		err := s.kit.check(e.cfg)
		res.check(err == nil, "%s fixed point: %v", name, err)
	} else {
		same := r.Rounds == s.rounds && moves == s.moves && slices.Equal(e.cfg.States, s.ref)
		res.check(same, "%s converge: %d rounds, %d moves, want %d, %d and the same fixed point", name, r.Rounds, moves, s.rounds, s.moves)
	}
	return took
}

// runTwin is the engine twin of one tenant of the given protocol.
func runTwin(protocol string, g *graph.Graph, muts []service.Mutation, rng *rand.Rand, tr *tracer, sm samples, res *result) {
	if protocol == service.ProtocolSMM {
		twin(smmKit(), g, muts, rng, tr, sm, res)
	} else {
		twin(smiKit(), g, muts, rng, tr, sm, res)
	}
}

// twin replays muts on a fresh tenant engine over g, through the calls
// internal/service/engine.go makes: the init epoch, then per mutation
// FaultLockstep.SetLink or WriteState, one Lockstep.ConvergeCtx epoch
// within the bound, and the legitimacy checker. It mutates g.
func twin[S comparable](k kit[S], g *graph.Graph, muts []service.Mutation, rng *rand.Rand, tr *tracer, sm samples, res *result) {
	cfg := core.NewConfig[S](g)
	for v := range cfg.States {
		cfg.States[v] = k.clean
	}
	fl := sim.NewFaultLockstep(k.p, cfg)
	defer fl.Close()
	l := fl.Lockstep()
	bound := boundOf(k.name, g.N())
	ctx := context.Background()
	if r, err := l.ConvergeCtx(ctx, bound+1); err != nil || !r.Stable {
		res.check(false, "twin %s init epoch: %v %v", k.name, r, err)
		return
	}
	for _, m := range muts {
		root := tr.begin("twin.mutation", span{})
		switch m.Op {
		case service.OpAddEdge, service.OpRemoveEdge:
			sp := tr.begin("sim.setlink", root)
			t0 := time.Now()
			fl.SetLink(graph.NewEdge(graph.NodeID(*m.U), graph.NodeID(*m.V)), m.Op == service.OpAddEdge)
			sm.add("setlink", ms(time.Since(t0)))
			tr.end(sp)
			sm.add("flap", 1)
		case service.OpCorrupt:
			sp := tr.begin("sim.write_state", root)
			for _, v := range m.Nodes {
				id := graph.NodeID(v)
				fl.WriteState(id, k.p.Random(id, g.Neighbors(id), rng))
			}
			tr.end(sp)
			sm.add("flap", 0)
		}
		sp := tr.begin("sim.epoch", root)
		moves0 := l.Moves()
		t0 := time.Now()
		r, err := l.ConvergeCtx(ctx, bound+1)
		sm.add("epoch", ms(time.Since(t0)))
		tr.end(sp)
		sm.add("epoch_rounds", float64(r.Rounds))
		sm.add("epoch_moves", float64(l.Moves()-moves0))

		sp = tr.begin("faults.check", root)
		t0 = time.Now()
		cerr := k.check(cfg)
		sm.add("check", ms(time.Since(t0)))
		tr.end(sp)
		tr.end(root, "op", m.Op, "protocol", k.name)
		res.check(err == nil && r.Stable && r.Rounds <= bound && cerr == nil,
			"twin %s %s: %v, bound %d, check %v", k.name, m.Op, r, bound, cerr)
	}
}

// reportEngine adds the engine-layer metrics from the sweep and twin
// samples, under the names perLayer lists.
func reportEngine(sm samples, res *result) {
	for _, k := range shardCounts {
		res.addPct(fmt.Sprintf("sim.build_ms.k%d", k), sm[fmt.Sprintf("build.k%d", k)], 50, "ms")
	}
	for _, p := range protocols {
		for _, k := range shardCounts {
			name := fmt.Sprintf("%s.k%d", p, k)
			res.addPct("sim.converge_ms."+name, sm["converge."+name], 50, "ms")
			res.addPct("sim.round1_ms."+name, sm["round1."+name], 50, "ms")
			res.addPct("sim.tail_round_us."+name, sm["tail."+name], 50, "us")
		}
		// Exact counts, summed over the workload's graphs of protocol p.
		for _, c := range []string{"rounds", "moves"} {
			if xs := sm[c+"."+p]; len(xs) > 0 {
				total := 0.0
				for _, x := range xs {
					total += x
				}
				res.add("sim."+c+"."+p, total, "count")
			}
		}
	}
	res.addPct("sim.setlink_ms.p50", sm["setlink"], 50, "ms")
	res.addPct("sim.epoch_ms.p50", sm["epoch"], 50, "ms")
	res.addPct("sim.epoch_ms.p99", sm["epoch"], 99, "ms")
	res.addMean("sim.epoch_rounds.mean", sm["epoch_rounds"], "count")
	res.addMean("sim.epoch_moves.mean", sm["epoch_moves"], "count")
	res.addPct("faults.check_ms.p50", sm["check"], 50, "ms")
	res.addMean("twin.flap_share", sm["flap"], "ratio")
}

// runEngineTwin runs, after the service load, the engine layers on each
// tenant's initial graph: the converge sweep from a random configuration,
// then a replay of each tenant's acked mutations in seq order. The w.twin
// replays are split across tenants in proportion to their acks, so the
// twin mixes protocols as the service's handler times do.
func runEngineTwin(w workload, cfg runConfig, tenants []*tenantRef, cs []*client, tr *tracer, res *result) {
	sm := samples{}
	streams := make([][]ack, len(tenants))
	total := 0
	for ti, t := range tenants {
		for _, c := range cs {
			streams[ti] = append(streams[ti], c.acks[ti]...)
		}
		acks := streams[ti]
		sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
		gapless := true
		for i, a := range acks {
			gapless = gapless && a.seq == int64(i+1)
		}
		res.check(gapless, "tenant %s: acked seqs are not exactly 1..%d", t.id, len(acks))
		total += len(acks)
	}
	for ti, t := range tenants {
		acks := streams[ti]
		share := min(len(acks), (len(acks)*w.twin+total-1)/max(total, 1))
		muts := make([]service.Mutation, share)
		for i := range muts {
			muts[i] = acks[i].m
		}
		g := graph.New(t.n)
		for _, e := range t.edges {
			g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
		}
		for _, set := range newEngineSets(g, newRNG(cfg.seed, 2000+ti), sm) {
			for rep := 0; rep < sweepReps; rep++ {
				for i := range shardCounts {
					set.run(i, true, tr, sm, res)
				}
			}
			set.close()
		}
		runTwin(t.protocol, g, muts, newRNG(cfg.seed, 3000+ti), tr, sm, res)
	}
	reportEngine(sm, res)
}

// newEngineSets builds a convergeSet over g for every protocol.
func newEngineSets(g *graph.Graph, rng *rand.Rand, sm samples) []engineSet {
	sets := make([]engineSet, len(protocols))
	for i, p := range protocols {
		sets[i] = newEngineSet(p, g, rng, sm)
	}
	return sets
}

// k2Runs is how often converge-1m converges each protocol with the K=2
// engine after the measured window; the first run is warm-up.
const k2Runs = 4

// runConverge is converge-1m. One op converges SMM, then SMI, with the
// K=1 engine from the same seeded random configuration. The K=2 engine
// runs after the measured window: its barriers wait on the second core,
// which a shared machine lends unevenly, and with K=2 in the op the op
// spread 15% from run to run, against 2% for K=1 alone in the same hour.
func runConverge(w workload, cfg runConfig, tr *tracer, res *result) {
	sm := samples{}
	var g *graph.Graph
	var sets []engineSet
	var setups, gens []float64
	var elapsed time.Duration
	for rep := 0; cfg.moreSetups(rep, elapsed); rep++ {
		for _, s := range sets {
			s.close()
		}
		sets, g = nil, nil
		runtime.GC()
		t0 := time.Now()
		rng := newRNG(cfg.seed, 0)
		g = unitDisk(w.convergeN, rng)
		gens = append(gens, time.Since(t0).Seconds())
		sets = newEngineSets(g, rng, sm)
		took := time.Since(t0)
		elapsed += took
		setups = append(setups, took.Seconds())
	}
	res.addPct("setup_s", setups, 50, "s")
	res.addPct("graph.gen_s", gens, 50, "s")

	var ops []timedOp
	runtime.GC() // collect set-up garbage now, not during the window
	start := time.Now()
	for i := 0; !cfg.done(i, start); i++ {
		t := time.Now()
		warm := cfg.warm(i, t, start)
		var took time.Duration
		for _, s := range sets {
			took += s.run(0, !warm, tr, sm, res) // shardCounts[0]: K=1
		}
		if !warm {
			ops = append(ops, timedOp{t, t.Add(took)})
		}
	}
	res.add("heap_mb", heapMB(), "MB")
	for rep := 0; rep < k2Runs; rep++ {
		for _, s := range sets {
			s.run(1, rep > 0, tr, sm, res) // shardCounts[1]: K=2
		}
	}
	res.addOps("op", "ops_per_s", ops)
	for _, p := range protocols {
		for _, k := range shardCounts {
			if xs := sm[fmt.Sprintf("converge.%s.k%d", p, k)]; len(xs) > 0 {
				res.add(fmt.Sprintf("%s_converge_k%d_s", p, k), pct(xs, 50)/1000, "s")
			}
		}
	}
	for _, s := range sets {
		s.close()
	}
	if tr != nil {
		// A 1M-node tenant's per-mutation path, on a generated stream of
		// the service workloads' mutation mix.
		for i, p := range protocols {
			rng := newRNG(cfg.seed, 4000+i)
			f := flapper{edges: sampleEdges(g, rng, 64), pending: -1}
			muts := make([]service.Mutation, w.twin/len(protocols))
			for j := range muts {
				muts[j] = nextMutation(rng, &f, g.N())
			}
			runTwin(p, g, muts, rng, tr, sm, res)
		}
	}
	reportEngine(sm, res)
}

// sampleEdges draws k edges of g, each a random neighbor of a random
// node that has one.
func sampleEdges(g *graph.Graph, rng *rand.Rand, k int) [][2]int {
	var out [][2]int
	for len(out) < k && g.M() > 0 {
		v := graph.NodeID(rng.Intn(g.N()))
		if nb := g.Neighbors(v); len(nb) > 0 {
			e := graph.NewEdge(v, nb[rng.Intn(len(nb))])
			out = append(out, [2]int{int(e.U), int(e.V)})
		}
	}
	return out
}
