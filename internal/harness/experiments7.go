package harness

import (
	"fmt"
	"math/rand"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
	"selfstab/internal/stats"
)

// E15FaultRecovery measures re-convergence after injected faults, per
// fault kind and burst size, under the deterministic fault engine's
// recovery monitor on the lockstep model. Every epoch must re-converge
// to a legitimate configuration within the enforced bound — n+1 rounds
// for SMM (Theorem 1), 2n+2 for SMI (the recorded O(n) constant) — and
// closure must hold between faults; any monitor violation fails the
// experiment.
func E15FaultRecovery(opt Options) *Table {
	t := &Table{
		ID:    "E15",
		Title: "Fault-injection recovery (deterministic schedules, lockstep model)",
		Claim: "after crash, corruption, beacon loss, partition, staleness and churn the protocols re-converge within the paper's bound, and closure holds between faults",
		Cols:  []string{"protocol", "fault", "burst", "re-rounds mean", "re-rounds max", "bound max", "epochs", "n"},
	}
	t.Passed = true
	n := opt.Sizes[len(opt.Sizes)-1]
	if n > 64 {
		n = 64
	}
	protos := []string{"SMM", "SMI"}
	kinds := []faults.Kind{faults.Crash, faults.Corrupt, faults.Drop, faults.Partition, faults.Stale, faults.Churn}
	bursts := []int{1, 3}
	type cell struct {
		sumRounds float64
		epochs    int
		maxRounds int
		maxBound  int
		viol      int
		ok        bool
	}
	total := len(protos) * len(kinds) * len(bursts) * opt.Trials
	res := mapCells(opt.workers(), total, func(i int) cell {
		trial := i % opt.Trials
		bi := (i / opt.Trials) % len(bursts)
		ki := (i / (opt.Trials * len(bursts))) % len(kinds)
		proto := protos[i/(opt.Trials*len(bursts)*len(kinds))]
		kind := kinds[ki]
		burst := bursts[bi]
		stream := proto + "/" + kind.String()
		g := graph.RandomConnected(n, 0.1, cellRand(opt.Seed, "E15", stream+"/graph", burst, trial))
		sched := faults.Generate(DeriveSeed(opt.Seed, "E15", stream, burst, trial), g,
			faults.GenParams{Events: 4, MaxBurst: burst, Start: n + 2, Kinds: []faults.Kind{kind}})
		stateSeed := DeriveSeed(opt.Seed, "E15", stream+"/state", burst, trial)
		var rep faults.Report
		switch proto {
		case "SMM":
			rep = e15Run(core.NewSMM(), faults.SMM, g, stateSeed, sched)
		case "SMI":
			rep = e15Run(core.NewSMI(), faults.SMI, g, stateSeed, sched)
		}
		c := cell{ok: !rep.Failed(), viol: rep.ClosureViolations}
		for _, ep := range rep.Epochs {
			if ep.Kind == faults.Init || !ep.Converged {
				continue
			}
			c.sumRounds += float64(ep.Rounds)
			c.epochs++
			if ep.Rounds > c.maxRounds {
				c.maxRounds = ep.Rounds
			}
			if ep.Bound > c.maxBound {
				c.maxBound = ep.Bound
			}
		}
		return c
	})
	for pi, proto := range protos {
		for ki, kind := range kinds {
			for bi, burst := range bursts {
				var rounds []float64
				agg := cell{}
				for trial := 0; trial < opt.Trials; trial++ {
					c := res[((pi*len(kinds)+ki)*len(bursts)+bi)*opt.Trials+trial]
					if !c.ok || c.viol > 0 {
						t.Passed = false
					}
					if c.epochs > 0 {
						rounds = append(rounds, c.sumRounds/float64(c.epochs))
					}
					if c.maxRounds > agg.maxRounds {
						agg.maxRounds = c.maxRounds
					}
					if c.maxBound > agg.maxBound {
						agg.maxBound = c.maxBound
					}
					agg.epochs += c.epochs
					t.Cells++
				}
				rs := stats.Summarize(rounds)
				t.AddRow(proto, kind.String(), itoa(burst), fmt.Sprintf("%.1f", rs.Mean),
					itoa(agg.maxRounds), itoa(agg.maxBound), itoa(agg.epochs), itoa(n))
			}
		}
	}
	t.Notes = append(t.Notes,
		"bound = ceil(f*n)+slack+duration per epoch: SMM f=1 slack=1 (Theorem 1's n+1), SMI f=2 slack=2 (recorded O(n) constant)",
		"epochs counts converged fault epochs (crash epochs pair with their resurrection epochs); closure violations between faults fail the experiment")
	return t
}

// e15Run replays one generated schedule on a fresh lockstep target.
func e15Run[S comparable](p core.Protocol[S], spec faults.Spec[S],
	g *graph.Graph, stateSeed int64, sched faults.Schedule) faults.Report {

	cfg := core.NewConfig[S](g.Clone())
	cfg.Randomize(p, rand.New(rand.NewSource(stateSeed)))
	tgt := sim.NewFaultLockstep(p, cfg)
	defer tgt.Close()
	return faults.RunSchedule(p, tgt, sched, spec)
}
