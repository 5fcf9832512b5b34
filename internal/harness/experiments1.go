package harness

import (
	"fmt"
	"math/rand"
	"slices"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
	"selfstab/internal/stats"
	"selfstab/internal/verify"
)

// E1SMMConvergence reproduces Theorem 1: Algorithm SMM stabilizes within
// n+1 rounds from every initial state and its fixed point is a maximal
// matching. One row per (topology, n): mean and max rounds across trials,
// against the bound. Trials fan out across the worker pool, one derived
// seed per cell.
func E1SMMConvergence(opt Options) *Table {
	t := &Table{
		ID:    "E1",
		Title: "SMM convergence (Theorem 1)",
		Claim: "SMM stabilizes in at most n+1 rounds and yields a maximal matching",
		Cols:  []string{"topology", "n", "trials", "rounds mean", "rounds max", "bound n+1", "maximal"},
	}
	t.Passed = true
	type cell struct {
		rounds  int
		inBound bool
		maximal bool
	}
	res, _ := trialGrid(opt, "E1", func(_ Topology, g *graph.Graph, n, _ int, seed int64) cell {
		l, r := runSMM(g, seed, core.NewSMM())
		return cell{
			rounds:  r.Rounds,
			inBound: r.Stable && r.Rounds <= n+1,
			maximal: verify.IsMaximalMatching(g, core.MatchingOf(l.Config())) == nil,
		}
	})
	for ti, topo := range opt.topologies() {
		for si, n := range opt.Sizes {
			rounds := make([]int, 0, opt.Trials)
			allMaximal := true
			for _, c := range res[ti][si] {
				if !c.inBound {
					t.Passed = false
				}
				if !c.maximal {
					allMaximal = false
					t.Passed = false
				}
				rounds = append(rounds, c.rounds)
				t.Cells++
			}
			s := stats.Summarize(stats.Ints(rounds))
			t.AddRow(topo.Name, itoa(n), itoa(opt.Trials),
				fmt.Sprintf("%.1f", s.Mean), itoa(int(s.Max)), itoa(n+1), boolMark(allMaximal))
		}
	}
	return t
}

// E2TypeCensus reproduces Lemma 7 and the Figure 3 transition diagram:
// after round 1 the sets A' and PA are empty, and every observed type
// transition is an arrow of the diagram. One row per topology with
// aggregate counts; per-trial matrices are merged deterministically in
// (size, trial) order.
func E2TypeCensus(opt Options) *Table {
	t := &Table{
		ID:    "E2",
		Title: "SMM node types (Lemma 7 / Figure 3)",
		Claim: "A' and PA are empty for all t ≥ 1; observed transitions ⊆ diagram",
		Cols:  []string{"topology", "transitions", "violations", "A'+PA after t=0", "distinct arrows"},
	}
	t.Passed = true
	type cell struct {
		m        core.TransitionMatrix
		lateA1PA int
	}
	res, _ := trialGrid(opt, "E2", func(_ Topology, g *graph.Graph, n, _ int, seed int64) cell {
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(core.NewSMM(), rand.New(rand.NewSource(seed)))
		before := core.ClassifySMM(cfg)
		var c cell
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
		l.RunHook(n+2, func(_ int, cf core.Config[core.Pointer]) {
			after := core.ClassifySMM(cf)
			c.m.Record(before, after)
			cen := core.CensusOf(after)
			c.lateA1PA += cen[core.TypeA1] + cen[core.TypePA]
			before = after
		})
		return c
	})
	for ti, topo := range opt.topologies() {
		var m core.TransitionMatrix
		lateA1PA := 0
		for si := range opt.Sizes {
			for _, c := range res[ti][si] {
				m.Add(&c.m)
				lateA1PA += c.lateA1PA
				t.Cells++
			}
		}
		viol := m.Violations()
		total := 0
		for _, tc := range m.Observed() {
			total += tc.Count
		}
		if len(viol) != 0 || lateA1PA != 0 {
			t.Passed = false
		}
		t.AddRow(topo.Name, itoa(total), itoa(len(viol)), itoa(lateA1PA), itoa(len(m.Observed())))
	}
	t.Notes = append(t.Notes,
		"distinct arrows counts the diagram edges actually exercised (diagram has 10 arrows incl. self-loops)")
	return t
}

// E3MatchingGrowth reproduces Lemmas 9–10: from t ≥ 1, whenever moves
// happen in two consecutive rounds the matched-node count grows by at
// least 2.
func E3MatchingGrowth(opt Options) *Table {
	t := &Table{
		ID:    "E3",
		Title: "Matching growth rate (Lemmas 9–10)",
		Claim: "|M| grows by ≥ 2 over any two consecutive active rounds after t=1",
		Cols:  []string{"topology", "windows checked", "min growth", "violations"},
	}
	t.Passed = true
	type cell struct {
		windows    int
		minGrowth  int
		violations int
	}
	res, _ := trialGrid(opt, "E3", func(_ Topology, g *graph.Graph, n, _ int, seed int64) cell {
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(core.NewSMM(), rand.New(rand.NewSource(seed)))
		l := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg)
		var sizes []int
		l.RunHook(n+2, func(_ int, cf core.Config[core.Pointer]) {
			sizes = append(sizes, 2*len(core.MatchingOf(cf)))
		})
		// sizes[k] is |M| after active round k+1; Lemma 10 windows start
		// at t >= 1.
		c := cell{minGrowth: 1 << 30}
		for k := 0; k+2 < len(sizes); k++ {
			c.windows++
			growth := sizes[k+2] - sizes[k]
			if growth < c.minGrowth {
				c.minGrowth = growth
			}
			if growth < 2 {
				c.violations++
			}
		}
		return c
	})
	for ti, topo := range opt.topologies() {
		windows, minGrowth, violations := 0, 1<<30, 0
		for si := range opt.Sizes {
			for _, c := range res[ti][si] {
				windows += c.windows
				if c.minGrowth < minGrowth {
					minGrowth = c.minGrowth
				}
				violations += c.violations
				t.Cells++
			}
		}
		if violations > 0 {
			t.Passed = false
		}
		if windows == 0 {
			minGrowth = 0
		}
		t.AddRow(topo.Name, itoa(windows), itoa(minGrowth), itoa(violations))
	}
	return t
}

// E4Counterexample reproduces the Section 3 counterexample: SMM with
// arbitrary (cyclic-successor) proposals oscillates forever on the
// four-cycle, while published SMM stabilizes; and the arbitrary variant
// also fails on larger even cycles. The six cases are deterministic and
// tiny, so they stay serial.
func E4Counterexample(opt Options) *Table {
	t := &Table{
		ID:    "E4",
		Title: "Arbitrary-proposal counterexample (Section 3)",
		Claim: "without min-ID proposals SMM may never stabilize; with them it always does",
		Cols:  []string{"graph", "variant", "rounds", "outcome", "period-2 oscillation"},
	}
	t.Passed = true
	limit := 1000
	if opt.Quick {
		limit = 200
	}
	cases := []int{4, 8, 16}
	for _, n := range cases {
		g := graph.Cycle(n)
		// Arbitrary proposals from the all-null state.
		cfgA := core.NewConfig[core.Pointer](g)
		for i := range cfgA.States {
			cfgA.States[i] = core.Null
		}
		snap0 := append([]core.Pointer(nil), cfgA.States...)
		lA := sim.NewLockstep[core.Pointer](core.NewSMMArbitrary(), cfgA)
		lA.Step()
		lA.Step()
		period2 := slices.Equal(cfgA.States, snap0)
		resA := lA.Run(limit - 2)
		if resA.Stable || !period2 {
			t.Passed = false
		}
		outcomeA := "oscillates"
		if resA.Stable {
			outcomeA = "stable"
		}
		t.AddRow(fmt.Sprintf("C%d", n), "successor", itoa(limit), outcomeA, boolMark(period2))

		// Published SMM from the same state.
		cfgB := core.NewConfig[core.Pointer](g)
		for i := range cfgB.States {
			cfgB.States[i] = core.Null
		}
		lB := sim.NewLockstep[core.Pointer](core.NewSMM(), cfgB)
		resB := lB.Run(n + 2)
		ok := resB.Stable && verify.IsMaximalMatching(g, core.MatchingOf(lB.Config())) == nil
		if !ok {
			t.Passed = false
		}
		outcomeB := "oscillates"
		if resB.Stable {
			outcomeB = "stable"
		}
		t.AddRow(fmt.Sprintf("C%d", n), "min-id", itoa(resB.Rounds), outcomeB, "-")
		t.Cells += 2
	}
	t.Notes = append(t.Notes,
		"successor variant run from the all-null state with the clockwise tie-break of the paper's example")
	return t
}

// E5SMIConvergence reproduces Theorem 2: Algorithm SMI stabilizes in O(n)
// rounds (measured against the bound n+1) and its fixed point is a
// maximal independent set; on small graphs the MIS size is also compared
// with the optimum independent set.
func E5SMIConvergence(opt Options) *Table {
	t := &Table{
		ID:    "E5",
		Title: "SMI convergence (Theorem 2)",
		Claim: "SMI stabilizes in O(n) rounds (≤ n+1 measured) and yields a maximal independent set",
		Cols:  []string{"topology", "n", "trials", "rounds mean", "rounds max", "bound n+1", "MIS", "|S|/opt"},
	}
	t.Passed = true
	type cell struct {
		rounds  int
		inBound bool
		isMIS   bool
		size    float64
	}
	res, graphs := trialGrid(opt, "E5", func(_ Topology, g *graph.Graph, n, _ int, seed int64) cell {
		l, r := runSMI(g, seed)
		set := core.SetOf(l.Config())
		return cell{
			rounds:  r.Rounds,
			inBound: r.Stable && r.Rounds <= n+1,
			isMIS:   verify.IsMaximalIndependentSet(g, set) == nil,
			size:    float64(len(set)),
		}
	})
	for ti, topo := range opt.topologies() {
		for si, n := range opt.Sizes {
			rounds := make([]int, 0, opt.Trials)
			allMIS := true
			ratio := "-"
			var sizes []float64
			for _, c := range res[ti][si] {
				if !c.inBound {
					t.Passed = false
				}
				if !c.isMIS {
					allMIS = false
					t.Passed = false
				}
				rounds = append(rounds, c.rounds)
				sizes = append(sizes, c.size)
				t.Cells++
			}
			if n <= 16 { // brute-force optimum only on small graphs
				if best := verify.MaxIndependentSetSize(graphs[ti][si]); best > 0 {
					ratio = fmt.Sprintf("%.2f", stats.Mean(sizes)/float64(best))
				}
			}
			s := stats.Summarize(stats.Ints(rounds))
			t.AddRow(topo.Name, itoa(n), itoa(opt.Trials),
				fmt.Sprintf("%.1f", s.Mean), itoa(int(s.Max)), itoa(n+1), boolMark(allMIS), ratio)
		}
	}
	return t
}
