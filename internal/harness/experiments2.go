package harness

import (
	"fmt"
	"math/rand"

	"selfstab/internal/beacon"
	"selfstab/internal/core"
	"selfstab/internal/daemon"
	"selfstab/internal/graph"
	"selfstab/internal/mobility"
	"selfstab/internal/protocols"
	"selfstab/internal/sim"
	"selfstab/internal/stats"
	"selfstab/internal/verify"
)

// E6SMIWave measures how SMI's stabilization time tracks the ID-descent
// wave of the Theorem 2 proof sketch: on paths, ascending IDs stabilize
// in O(1) rounds while descending IDs force the wave to traverse the
// whole path; the rounds-vs-n fit quantifies the linearity.
func E6SMIWave(opt Options) *Table {
	t := &Table{
		ID:    "E6",
		Title: "SMI ID-wave scaling (Theorem 2 proof sketch)",
		Claim: "stabilization time is O(n), driven by the descending-ID wave",
		Cols:  []string{"ID order", "rounds per n (fit)", "R²", "max rounds", "max n+1"},
	}
	t.Passed = true
	orders := []struct {
		name string
		perm func(n int, rng *rand.Rand) []graph.NodeID
	}{
		{"ascending", func(n int, _ *rand.Rand) []graph.NodeID { return identityPerm(n) }},
		{"descending", func(n int, _ *rand.Rand) []graph.NodeID { return reversePerm(n) }},
		{"random", func(n int, rng *rand.Rand) []graph.NodeID { return graph.RandomPermutation(n, rng) }},
	}
	graphs := make([][]*graph.Graph, len(orders))
	for oi, ord := range orders {
		graphs[oi] = make([]*graph.Graph, len(opt.Sizes))
		for si, n := range opt.Sizes {
			rng := cellRand(opt.Seed, "E6", ord.name+"/perm", n, -1)
			graphs[oi][si] = graph.Path(n).Relabel(ord.perm(n, rng))
		}
	}
	type cell struct {
		rounds  int
		inBound bool
	}
	total := len(orders) * len(opt.Sizes) * opt.Trials
	res := mapCells(opt.workers(), total, func(i int) cell {
		trial := i % opt.Trials
		si := (i / opt.Trials) % len(opt.Sizes)
		oi := i / (opt.Trials * len(opt.Sizes))
		n := opt.Sizes[si]
		g := graphs[oi][si]
		// From the all-zero state the wave is fully exposed.
		cfg := core.NewConfig[bool](g)
		if trial > 0 { // remaining trials randomize
			seed := DeriveSeed(opt.Seed, "E6", orders[oi].name, n, trial)
			cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(seed)))
		}
		l := sim.NewLockstep[bool](core.NewSMI(), cfg)
		r := l.Run(n + 2)
		return cell{rounds: r.Rounds, inBound: r.Stable && r.Rounds <= n+1}
	})
	for oi, ord := range orders {
		var xs, ys []float64
		maxRounds, maxBound := 0, 0
		for si, n := range opt.Sizes {
			worst := 0
			for trial := 0; trial < opt.Trials; trial++ {
				c := res[(oi*len(opt.Sizes)+si)*opt.Trials+trial]
				if !c.inBound {
					t.Passed = false
				}
				if c.rounds > worst {
					worst = c.rounds
				}
				t.Cells++
			}
			xs = append(xs, float64(n))
			ys = append(ys, float64(worst))
			if worst > maxRounds {
				maxRounds = worst
				maxBound = n + 1
			}
		}
		fit := stats.FitLine(xs, ys)
		t.AddRow(ord.name, fmt.Sprintf("%.3f", fit.Slope), fmt.Sprintf("%.3f", fit.R2),
			itoa(maxRounds), itoa(maxBound))
	}
	t.Notes = append(t.Notes,
		"paths with relabeled IDs; 'descending' reverses the path so the wave must traverse it")
	return t
}

// E7Baseline reproduces the Section 3 comparison: converting the
// Hsu–Huang central-daemon algorithm to the synchronous model via daemon
// refinement stabilizes, but is slower than the purpose-built SMM.
func E7Baseline(opt Options) *Table {
	t := &Table{
		ID:    "E7",
		Title: "SMM vs. synchronized Hsu–Huang (Section 3)",
		Claim: "the refined central-daemon algorithm is correct but not as fast as SMM",
		Cols:  []string{"topology", "n", "SMM rounds", "refined HH rounds", "slowdown", "both maximal"},
	}
	t.Passed = true
	gridOpt := opt
	gridOpt.Sizes = nil
	for _, n := range opt.Sizes {
		if n > 128 && opt.Quick {
			continue
		}
		gridOpt.Sizes = append(gridOpt.Sizes, n)
	}
	type cell struct {
		smmRounds float64
		refRounds float64
		stable    bool
		bothMax   bool
	}
	res, _ := trialGrid(gridOpt, "E7", func(_ Topology, g *graph.Graph, n, trial int, seed int64) cell {
		c := cell{stable: true, bothMax: true}
		l, r := runSMM(g, seed, core.NewSMM())
		if !r.Stable {
			c.stable = false
		}
		if verify.IsMaximalMatching(g, core.MatchingOf(l.Config())) != nil {
			c.bothMax = false
		}
		c.smmRounds = float64(r.Rounds)

		ref := protocols.Refine[core.Pointer](protocols.NewHsuHuang(), n, seed)
		cfg := core.NewConfig[protocols.RefState[core.Pointer]](g)
		cfg.Randomize(ref, rand.New(rand.NewSource(seed)))
		lr := sim.NewLockstep[protocols.RefState[core.Pointer]](ref, cfg)
		rres := lr.Run(500 * n)
		if !rres.Stable {
			c.stable = false
		}
		inner := core.NewConfig[core.Pointer](g)
		for v, s := range lr.Config().States {
			inner.States[v] = s.Inner
		}
		if verify.IsMaximalMatching(g, core.MatchingOf(inner)) != nil {
			c.bothMax = false
		}
		c.refRounds = float64(rres.Rounds)
		return c
	})
	for ti, topo := range gridOpt.topologies() {
		for si, n := range gridOpt.Sizes {
			var smmRounds, refRounds []float64
			bothMaximal := true
			for _, c := range res[ti][si] {
				if !c.stable {
					t.Passed = false
				}
				if !c.bothMax {
					bothMaximal = false
				}
				smmRounds = append(smmRounds, c.smmRounds)
				refRounds = append(refRounds, c.refRounds)
				t.Cells++
			}
			if !bothMaximal {
				t.Passed = false
			}
			ms, rs := stats.Mean(smmRounds), stats.Mean(refRounds)
			slowdown := rs / ms
			if slowdown <= 1 {
				t.Passed = false // the paper's claim is that SMM is faster
			}
			t.AddRow(topo.Name, itoa(n), fmt.Sprintf("%.1f", ms), fmt.Sprintf("%.1f", rs),
				fmt.Sprintf("%.1fx", slowdown), boolMark(bothMaximal))
		}
	}
	return t
}

// E8Restabilization reproduces the fault-tolerance claim: after k link
// failures/creations both protocols re-stabilize, and the disruption
// (nodes whose state changes) stays commensurate with k rather than n.
func E8Restabilization(opt Options) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Re-stabilization after topology changes",
		Claim: "the algorithms detect link failures/creations and readjust the predicate",
		Cols:  []string{"protocol", "k events", "re-rounds mean", "re-rounds max", "disrupted mean", "n"},
	}
	t.Passed = true
	n := opt.Sizes[len(opt.Sizes)-1]
	if n > 128 {
		n = 128
	}
	protos := []string{"SMM", "SMI"}
	ks := []int{1, 2, 4, 8}
	type cell struct {
		rounds    int
		disrupted int
		ok        bool
	}
	total := len(protos) * len(ks) * opt.Trials
	res := mapCells(opt.workers(), total, func(i int) cell {
		trial := i % opt.Trials
		ki := (i / opt.Trials) % len(ks)
		proto := protos[i/(opt.Trials*len(ks))]
		k := ks[ki]
		seed := DeriveSeed(opt.Seed, "E8", proto, k, trial)
		rng := cellRand(opt.Seed, "E8", proto+"/churn", k, trial)
		g := graph.RandomConnected(n, 0.1, rng)
		var c cell
		switch proto {
		case "SMM":
			c.rounds, c.disrupted, c.ok = restabilizeSMM(g, k, seed, rng)
		case "SMI":
			c.rounds, c.disrupted, c.ok = restabilizeSMI(g, k, seed, rng)
		}
		return c
	})
	for pi, proto := range protos {
		for ki, k := range ks {
			var rounds, disrupted []float64
			for trial := 0; trial < opt.Trials; trial++ {
				c := res[(pi*len(ks)+ki)*opt.Trials+trial]
				if !c.ok {
					t.Passed = false
				}
				rounds = append(rounds, float64(c.rounds))
				disrupted = append(disrupted, float64(c.disrupted))
				t.Cells++
			}
			rs := stats.Summarize(rounds)
			ds := stats.Summarize(disrupted)
			t.AddRow(proto, itoa(k), fmt.Sprintf("%.1f", rs.Mean), itoa(int(rs.Max)),
				fmt.Sprintf("%.1f", ds.Mean), itoa(n))
		}
	}
	t.Notes = append(t.Notes,
		"disrupted = nodes whose state differs between the pre-churn and post-churn fixed points")
	return t
}

func restabilizeSMM(g *graph.Graph, k int, seed int64, rng *rand.Rand) (rounds, disrupted int, ok bool) {
	p := core.NewSMM()
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(p, rand.New(rand.NewSource(seed)))
	l := sim.NewLockstep[core.Pointer](p, cfg)
	if res := l.Run(g.N() + 2); !res.Stable {
		return 0, 0, false
	}
	before := append([]core.Pointer(nil), cfg.States...)
	mobility.NewChurn(g, rng).Apply(k)
	core.NormalizeSMM(cfg)
	res := l.Run(g.N() + 2)
	if !res.Stable || verify.IsMaximalMatching(g, core.MatchingOf(l.Config())) != nil {
		return res.Rounds, 0, false
	}
	for v := range before {
		if before[v] != cfg.States[v] {
			disrupted++
		}
	}
	return res.Rounds, disrupted, true
}

func restabilizeSMI(g *graph.Graph, k int, seed int64, rng *rand.Rand) (rounds, disrupted int, ok bool) {
	p := core.NewSMI()
	cfg := core.NewConfig[bool](g)
	cfg.Randomize(p, rand.New(rand.NewSource(seed)))
	l := sim.NewLockstep[bool](p, cfg)
	if res := l.Run(g.N() + 2); !res.Stable {
		return 0, 0, false
	}
	before := append([]bool(nil), cfg.States...)
	mobility.NewChurn(g, rng).Apply(k)
	res := l.Run(g.N() + 2)
	if !res.Stable || verify.IsMaximalIndependentSet(g, core.SetOf(l.Config())) != nil {
		return res.Rounds, 0, false
	}
	for v := range before {
		if before[v] != cfg.States[v] {
			disrupted++
		}
	}
	return res.Rounds, disrupted, true
}

// E9BeaconModel validates the system-model substitution: under the
// discrete-event beacon layer (jitter, delays, loss, discovery) SMM
// still stabilizes, and with synchronized loss-free beacons the beacon
// round count matches the lockstep count plus the fixed discovery
// warmup.
func E9BeaconModel(opt Options) *Table {
	t := &Table{
		ID:    "E9",
		Title: "Beacon-model fidelity (System Model, Section 2)",
		Claim: "convergence in beacon rounds matches the synchronous analysis; asynchrony and loss only add slack",
		Cols:  []string{"setting", "n", "lockstep rounds", "beacon rounds", "beacons sent", "stable", "maximal"},
	}
	t.Passed = true
	settings := []struct {
		name string
		prm  beacon.Params
	}{
		{"synchronized", beacon.Params{TB: 1, TimeoutFactor: 3, Synchronized: true}},
		{"jitter-10%", beacon.Params{TB: 1, Jitter: 0.10, Delay: 0.05, TimeoutFactor: 3}},
		{"jitter-40%", beacon.Params{TB: 1, Jitter: 0.40, Delay: 0.10, DelayJitter: 0.5, TimeoutFactor: 3}},
		{"loss-10%", beacon.Params{TB: 1, Jitter: 0.10, Delay: 0.05, Loss: 0.10, TimeoutFactor: 4}},
	}
	sizes := opt.Sizes
	if len(sizes) > 3 {
		sizes = sizes[:3]
	}
	trials := opt.Trials
	if trials > 10 {
		trials = 10
	}
	graphs := make([][]*graph.Graph, len(settings))
	for si, setting := range settings {
		graphs[si] = make([]*graph.Graph, len(sizes))
		for ni, n := range sizes {
			rng := cellRand(opt.Seed, "E9", setting.name+"/graph", n, -1)
			graphs[si][ni], _ = graph.RandomUnitDisk(n, 1.2/float64(n), rng)
		}
	}
	type cell struct {
		lockRounds float64
		beacRounds float64
		sent       float64
		stable     bool
		maximal    bool
	}
	total := len(settings) * len(sizes) * trials
	res := mapCells(opt.workers(), total, func(i int) cell {
		trial := i % trials
		ni := (i / trials) % len(sizes)
		si := i / (trials * len(sizes))
		n := sizes[ni]
		g := graphs[si][ni]
		setting := settings[si]
		start := core.NewConfig[core.Pointer](g)
		start.Randomize(core.NewSMM(), cellRand(opt.Seed, "E9", setting.name, n, trial))
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), start.Clone())
		lres := l.Run(n + 2)

		nrng := cellRand(opt.Seed, "E9", setting.name+"/net", n, trial)
		net := beacon.NewNetwork[core.Pointer](core.NewSMM(), g.Clone(), start.States, setting.prm, nrng)
		bres := net.Run(float64(50*n), 6)
		return cell{
			lockRounds: float64(lres.Rounds),
			beacRounds: bres.Rounds,
			sent:       float64(net.LinkStats().Sent),
			stable:     lres.Stable && bres.Stable,
			maximal:    verify.IsMaximalMatching(g, core.MatchingOf(net.Config())) == nil,
		}
	})
	for si, setting := range settings {
		for ni, n := range sizes {
			var lockRounds, beacRounds, sent []float64
			stable, maximal := true, true
			for trial := 0; trial < trials; trial++ {
				c := res[(si*len(sizes)+ni)*trials+trial]
				if !c.stable {
					stable = false
					t.Passed = false
				}
				if !c.maximal {
					maximal = false
					t.Passed = false
				}
				lockRounds = append(lockRounds, c.lockRounds)
				beacRounds = append(beacRounds, c.beacRounds)
				sent = append(sent, c.sent)
				t.Cells++
			}
			t.AddRow(setting.name, itoa(n),
				fmt.Sprintf("%.1f", stats.Mean(lockRounds)),
				fmt.Sprintf("%.1f", stats.Mean(beacRounds)),
				fmt.Sprintf("%.0f", stats.Mean(sent)),
				boolMark(stable), boolMark(maximal))
		}
	}
	t.Notes = append(t.Notes,
		"beacon rounds = time of last protocol move / t_b, including the ~2-round discovery warmup")
	return t
}

// E10Extensions reproduces the conclusion's claim on the other problems
// the introduction motivates: the synchronous model also solves coloring
// (fast, deterministic) and anonymous MIS (randomized), and the daemon
// machinery executes the baselines under classical schedulers.
func E10Extensions(opt Options) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Extensions and daemons (Conclusions)",
		Claim: "central-daemon-solvable problems are solvable in the synchronous model",
		Cols:  []string{"protocol", "model", "n", "rounds/steps mean", "max", "valid"},
	}
	t.Passed = true
	n := opt.Sizes[len(opt.Sizes)-1]
	if n > 64 {
		n = 64
	}
	trials := opt.Trials
	if trials > 20 {
		trials = 20
	}
	type cell struct {
		cost  float64
		valid bool
	}
	// runBlock fans one protocol block's trials across the pool; stream
	// names the block so its cells draw independent seeds.
	runBlock := func(stream string, count int, body func(trial int, seed int64, grng *rand.Rand) cell) []cell {
		return mapCells(opt.workers(), count, func(trial int) cell {
			return body(trial,
				DeriveSeed(opt.Seed, "E10", stream, n, trial),
				cellRand(opt.Seed, "E10", stream+"/graph", n, trial))
		})
	}
	emit := func(name, model string, res []cell) {
		var costs []float64
		valid := true
		for _, c := range res {
			if !c.valid {
				valid = false
				t.Passed = false
			}
			costs = append(costs, c.cost)
			t.Cells++
		}
		s := stats.Summarize(costs)
		t.AddRow(name, model, itoa(n), fmt.Sprintf("%.1f", s.Mean), itoa(int(s.Max)), boolMark(valid))
	}

	// Grundy coloring, synchronous.
	emit("Coloring", "synchronous", runBlock("coloring", trials, func(_ int, seed int64, grng *rand.Rand) cell {
		g := graph.RandomConnected(n, 0.15, grng)
		p := protocols.NewColoring()
		cfg := core.NewConfig[int](g)
		cfg.Randomize(p, rand.New(rand.NewSource(seed)))
		l := sim.NewLockstep[int](p, cfg)
		res := l.Run(n + 2)
		return cell{
			cost:  float64(res.Rounds),
			valid: res.Stable && verify.IsProperColoring(g, l.Config().States) == nil,
		}
	}))

	// Randomized anonymous MIS, synchronous.
	emit("RandMIS", "synchronous", runBlock("randmis", trials, func(_ int, seed int64, grng *rand.Rand) cell {
		g := graph.RandomConnected(n, 0.15, grng)
		p := protocols.NewRandMIS(n, seed)
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(p, rand.New(rand.NewSource(seed)))
		l := sim.NewLockstep[bool](p, cfg)
		res := l.Run(1000 * n)
		return cell{
			cost:  float64(res.Rounds),
			valid: res.Stable && verify.IsMaximalIndependentSet(g, core.SetOf(l.Config())) == nil,
		}
	}))

	// Hsu–Huang under the classical daemons.
	for _, strat := range []daemon.Pick{daemon.PickRandom, daemon.PickAdversarial} {
		dTrials := trials
		if strat == daemon.PickAdversarial && dTrials > 5 {
			dTrials = 5 // the greedy adversary is O(n²) per step
		}
		stream := "hsuhuang/" + strat.String()
		emit("HsuHuang", "central-"+strat.String(),
			runBlock(stream, dTrials, func(_ int, seed int64, grng *rand.Rand) cell {
				g := graph.RandomConnected(n, 0.15, grng)
				p := protocols.NewHsuHuang()
				cfg := core.NewConfig[core.Pointer](g)
				cfg.Randomize(p, rand.New(rand.NewSource(seed)))
				drng := rand.New(rand.NewSource(seed + 1))
				r := daemon.NewRunner[core.Pointer](p, cfg, daemon.NewCentral[core.Pointer](strat, drng))
				res := r.Run(50 * n * n)
				return cell{
					cost:  float64(res.Steps),
					valid: res.Stable && verify.IsMaximalMatching(g, core.MatchingOf(r.Config())) == nil,
				}
			}))
	}

	// BFS spanning tree (the multicast-tree maintenance the paper's
	// introduction motivates), synchronous, from states with fake roots.
	emit("SpanningTree", "synchronous", runBlock("tree", trials, func(_ int, seed int64, grng *rand.Rand) cell {
		g := graph.RandomConnected(n, 0.15, grng)
		p := protocols.NewSpanningTree(n)
		cfg := core.NewConfig[protocols.TreeState](g)
		cfg.Randomize(p, rand.New(rand.NewSource(seed)))
		l := sim.NewLockstep[protocols.TreeState](p, cfg)
		res := l.Run(5*n + 10)
		return cell{
			cost:  float64(res.Rounds),
			valid: res.Stable && protocols.VerifyTree(g, l.Config().States) == nil,
		}
	}))

	// SMI under a distributed daemon (robustness beyond the paper).
	emit("SMI", "distributed-0.50", runBlock("smi-dist", trials, func(_ int, seed int64, grng *rand.Rand) cell {
		g := graph.RandomConnected(n, 0.15, grng)
		p := core.NewSMI()
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(p, rand.New(rand.NewSource(seed)))
		drng := rand.New(rand.NewSource(seed + 1))
		r := daemon.NewRunner[bool](p, cfg, daemon.NewDistributed[bool](0.5, drng))
		res := r.Run(200 * n)
		return cell{
			cost:  float64(res.Steps),
			valid: res.Stable && verify.IsMaximalIndependentSet(g, core.SetOf(r.Config())) == nil,
		}
	}))

	return t
}

func identityPerm(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	return p
}

func reversePerm(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = graph.NodeID(n - 1 - i)
	}
	return p
}
