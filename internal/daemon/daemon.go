// Package daemon implements the classical self-stabilization execution
// models the paper contrasts its synchronous beacon model with: a central
// daemon that activates exactly one privileged node per step, and a
// distributed daemon that activates an arbitrary nonempty subset. The
// baselines (the Hsu–Huang central-daemon matching algorithm) and the
// daemon-refinement comparison of experiment E7/E10 run under these
// schedulers.
package daemon

import (
	"fmt"
	"math"
	"math/rand"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Scheduler chooses which privileged nodes move in one step. The
// privileged slice is ascending and nonempty; the returned slice must be
// a nonempty subset of it. Schedulers may consult the configuration and
// protocol to act adversarially.
type Scheduler[S comparable] interface {
	Name() string
	Select(cfg core.Config[S], p core.Protocol[S], privileged []graph.NodeID) []graph.NodeID
}

// Pick selects a single node for the central daemon.
type Pick uint8

// Central daemon picking strategies.
const (
	// PickRandom activates a uniformly random privileged node.
	PickRandom Pick = iota
	// PickMin activates the smallest-ID privileged node.
	PickMin
	// PickMax activates the largest-ID privileged node.
	PickMax
	// PickAdversarial greedily activates the privileged node whose move
	// leaves the most privileged nodes afterwards — a simple adversary
	// heuristic that lengthens executions.
	PickAdversarial
)

// String names the strategy.
func (p Pick) String() string {
	switch p {
	case PickRandom:
		return "random"
	case PickMin:
		return "min"
	case PickMax:
		return "max"
	case PickAdversarial:
		return "adversarial"
	}
	return fmt.Sprintf("Pick(%d)", uint8(p))
}

// Central is the central daemon: exactly one privileged node moves per
// step.
type Central[S comparable] struct {
	Strategy Pick
	Rng      *rand.Rand // required for PickRandom
}

// NewCentral returns a central daemon with the given strategy. rng may be
// nil for deterministic strategies.
func NewCentral[S comparable](strategy Pick, rng *rand.Rand) *Central[S] {
	return &Central[S]{Strategy: strategy, Rng: rng}
}

// Name implements Scheduler.
func (c *Central[S]) Name() string { return "central-" + c.Strategy.String() }

// Select implements Scheduler.
func (c *Central[S]) Select(cfg core.Config[S], p core.Protocol[S], privileged []graph.NodeID) []graph.NodeID {
	switch c.Strategy {
	case PickRandom:
		i := c.Rng.Intn(len(privileged))
		return privileged[i : i+1]
	case PickMin:
		return privileged[:1]
	case PickMax:
		return privileged[len(privileged)-1:]
	case PickAdversarial:
		// A move changes privilege only in the mover's closed
		// neighborhood, the only nodes whose views read its state, so the
		// node whose move leaves the most privileged nodes is the one
		// whose move gains the most there. Each candidate's move is
		// applied in place, counted and undone.
		peer := func(j graph.NodeID) S { return cfg.States[j] }
		move := func(v graph.NodeID) (S, bool) {
			return p.Move(core.View[S]{ID: v, Self: cfg.States[v], Nbrs: cfg.G.Neighbors(v), Peer: peer})
		}
		privilegedAround := func(u graph.NodeID) int {
			count := 0
			if _, moved := move(u); moved {
				count++
			}
			for _, v := range cfg.G.Neighbors(u) {
				if _, moved := move(v); moved {
					count++
				}
			}
			return count
		}
		best, bestGain := privileged[:1], math.MinInt
		for i, u := range privileged {
			before, old := privilegedAround(u), cfg.States[u]
			cfg.States[u], _ = move(u)
			gain := privilegedAround(u) - before
			cfg.States[u] = old
			if gain > bestGain {
				best, bestGain = privileged[i:i+1], gain
			}
		}
		return best
	}
	panic(fmt.Sprintf("daemon: unknown strategy %v", c.Strategy))
}

// Distributed is the distributed daemon: every privileged node is
// activated independently with probability P; if none is chosen, one
// random privileged node is activated so the step is productive (a
// weakly-fair daemon never stalls a privileged system).
type Distributed[S comparable] struct {
	P   float64
	Rng *rand.Rand
}

// NewDistributed returns a distributed daemon activating each privileged
// node with probability p.
func NewDistributed[S comparable](p float64, rng *rand.Rand) *Distributed[S] {
	return &Distributed[S]{P: p, Rng: rng}
}

// Name implements Scheduler.
func (d *Distributed[S]) Name() string { return fmt.Sprintf("distributed-%.2f", d.P) }

// Select implements Scheduler.
func (d *Distributed[S]) Select(_ core.Config[S], _ core.Protocol[S], privileged []graph.NodeID) []graph.NodeID {
	var chosen []graph.NodeID
	for _, v := range privileged {
		if d.Rng.Float64() < d.P {
			chosen = append(chosen, v)
		}
	}
	if len(chosen) == 0 {
		chosen = append(chosen, privileged[d.Rng.Intn(len(privileged))])
	}
	return chosen
}

// Result summarizes a daemon-driven run.
type Result struct {
	// Steps is the number of daemon activations (for the central daemon,
	// the classical "moves" count).
	Steps int
	// Moves is the total number of node moves across all steps.
	Moves int
	// Stable reports whether a fixed point was reached within the limit.
	Stable bool
}

// String renders e.g. "stable in 12 steps (12 moves)".
func (r Result) String() string {
	if r.Stable {
		return fmt.Sprintf("stable in %d steps (%d moves)", r.Steps, r.Moves)
	}
	return fmt.Sprintf("NOT stable after %d steps (%d moves)", r.Steps, r.Moves)
}

// Runner executes a protocol under a scheduler. Selected nodes move
// simultaneously against the pre-step configuration, which for the
// central daemon coincides with serial semantics and for the distributed
// daemon models concurrent activation.
type Runner[S comparable] struct {
	p     core.Protocol[S]
	cfg   core.Config[S]
	sch   Scheduler[S]
	steps int
	moves int
}

// NewRunner wraps protocol p on cfg under scheduler sch. The
// configuration is used in place.
func NewRunner[S comparable](p core.Protocol[S], cfg core.Config[S], sch Scheduler[S]) *Runner[S] {
	return &Runner[S]{p: p, cfg: cfg, sch: sch}
}

// Config exposes the evolving configuration.
func (r *Runner[S]) Config() core.Config[S] { return r.cfg }

// Steps returns the number of daemon activations so far.
func (r *Runner[S]) Steps() int { return r.steps }

// Moves returns the total node moves so far.
func (r *Runner[S]) Moves() int { return r.moves }

// Step performs one daemon activation. It returns the number of nodes
// moved; zero means the configuration is a fixed point.
func (r *Runner[S]) Step() int {
	privileged := r.cfg.PrivilegedNodes(r.p)
	if len(privileged) == 0 {
		return 0
	}
	chosen := r.sch.Select(r.cfg, r.p, privileged)
	if len(chosen) == 0 {
		panic("daemon: scheduler selected no nodes")
	}
	next := make([]S, len(chosen))
	for i, v := range chosen {
		next[i], _ = r.p.Move(r.cfg.View(v))
	}
	for i, v := range chosen {
		r.cfg.States[v] = next[i]
	}
	r.steps++
	r.moves += len(chosen)
	return len(chosen)
}

// Run drives Step until quiescence or maxSteps activations.
func (r *Runner[S]) Run(maxSteps int) Result {
	start := r.steps
	for r.steps-start < maxSteps {
		if r.Step() == 0 {
			return Result{Steps: r.steps - start, Moves: r.moves, Stable: true}
		}
	}
	stable := len(r.cfg.PrivilegedNodes(r.p)) == 0
	return Result{Steps: r.steps - start, Moves: r.moves, Stable: stable}
}
