// Package adversary searches for worst-case *initial configurations* by
// stochastic hill climbing: start from a random configuration, measure
// the rounds-to-stabilize, repeatedly mutate one node's state and keep
// mutations that slow convergence. On instances small enough for the
// exhaustive checker the climber's results can be validated against the
// exact worst case; on larger instances it provides an empirical lower
// bound on the true worst case, tightening the picture between the
// sampled averages of E1/E5 and the proven n+1 ceiling.
package adversary

import (
	"fmt"
	"math/rand"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
)

// Result is the outcome of a search.
type Result struct {
	// Rounds is the slowest stabilization found.
	Rounds int
	// Start is a configuration achieving it.
	Start []any // formatted states, for reporting
	// Evaluations counts protocol runs performed.
	Evaluations int
	// Diverged reports that a start exceeding the round limit was found
	// (only possible for non-stabilizing protocols).
	Diverged bool
}

// String summarizes the result.
func (r Result) String() string {
	if r.Diverged {
		return fmt.Sprintf("found non-stabilizing start after %d evaluations", r.Evaluations)
	}
	return fmt.Sprintf("worst found: %d rounds (%d evaluations)", r.Rounds, r.Evaluations)
}

// Options tunes the climber.
type Options struct {
	// Restarts is the number of independent climbs.
	Restarts int
	// Steps is the mutation budget per climb.
	Steps int
	// Limit caps rounds per evaluation; runs hitting it count as
	// divergence. Zero means n+1 (the theorems' ceiling, +1 slack).
	Limit int
}

// DefaultOptions returns a budget suitable for n ≤ a few hundred.
func DefaultOptions() Options { return Options{Restarts: 8, Steps: 300} }

// Search hill-climbs for slow initial configurations of protocol p on g.
func Search[S comparable](p core.Protocol[S], g *graph.Graph, opt Options, rng *rand.Rand) Result {
	limit := opt.Limit
	if limit == 0 {
		limit = g.N() + 2
	}
	evaluate := func(states []S) (int, bool) {
		cfg := core.Config[S]{G: g, States: append([]S(nil), states...)}
		l := sim.NewLockstep[S](p, cfg)
		res := l.Run(limit)
		return res.Rounds, res.Stable
	}

	best := Result{Rounds: -1}
	cur := make([]S, g.N())
	for restart := 0; restart < opt.Restarts; restart++ {
		core.Config[S]{G: g, States: cur}.Randomize(p, rng)
		curRounds, stable := evaluate(cur)
		best.Evaluations++
		if !stable {
			return divergedResult(cur, best.Evaluations)
		}
		record(&best, curRounds, cur)
		for step := 0; step < opt.Steps; step++ {
			v := graph.NodeID(rng.Intn(g.N()))
			old := cur[v]
			cur[v] = p.Random(v, g.Neighbors(v), rng)
			rounds, stable := evaluate(cur)
			best.Evaluations++
			if !stable {
				return divergedResult(cur, best.Evaluations)
			}
			if rounds >= curRounds { // plateau moves keep the walk alive
				curRounds = rounds
				record(&best, rounds, cur)
			} else {
				cur[v] = old
			}
		}
	}
	return best
}

func record[S comparable](best *Result, rounds int, states []S) {
	if rounds <= best.Rounds {
		return
	}
	best.Rounds = rounds
	best.Start = formatStates(states)
}

func divergedResult[S comparable](states []S, evals int) Result {
	return Result{Diverged: true, Start: formatStates(states), Evaluations: evals}
}

func formatStates[S comparable](states []S) []any {
	out := make([]any, len(states))
	for i, s := range states {
		out[i] = s
	}
	return out
}
