// Package rules is an executable transcription of the paper's pseudocode
// figures: a protocol is a guarded-command list — exactly the shape of
// Figure 1 (Algorithm SMM) and Figure 4 (Algorithm SMI) — evaluated
// first-enabled-rule-fires. The engine counts rule firings, giving the
// per-rule census the experiments report (how much work R1/R2/R3 each
// perform), and the transcriptions are differentially tested against the
// hand-optimized implementations in internal/core: two independently
// written versions of the same figures must agree move for move.
package rules

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Rule is one guarded command: if Guard holds at the node, Action
// produces its next state.
type Rule[S comparable] struct {
	// Name labels the rule in censuses ("R1", "R2", ...).
	Name string
	// Comment is the paper's bracket annotation ("accept proposal").
	Comment string
	// Guard reports whether the rule is enabled.
	Guard func(v core.View[S]) bool
	// Action computes the new state; invoked only when Guard holds.
	Action func(v core.View[S]) S
}

// Engine executes a rule list as a core.Protocol: the first enabled rule
// fires, matching the paper's pseudocode semantics (the rule guards of
// SMM and SMI are mutually exclusive, so order is immaterial there, but
// the engine preserves order for rule systems where it is not).
type Engine[S comparable] struct {
	name    string
	rules   []Rule[S]
	random  func(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) S
	firings []atomic.Int64
}

// NewEngine builds an engine. random supplies the arbitrary-initial-state
// distribution (the protocol's full state space).
func NewEngine[S comparable](name string, random func(graph.NodeID, []graph.NodeID, *rand.Rand) S, rs ...Rule[S]) *Engine[S] {
	if len(rs) == 0 {
		panic("rules: NewEngine with no rules")
	}
	return &Engine[S]{name: name, rules: rs, random: random, firings: make([]atomic.Int64, len(rs))}
}

// Name implements core.Protocol.
func (e *Engine[S]) Name() string { return e.name }

// Random implements core.Protocol.
func (e *Engine[S]) Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) S {
	return e.random(id, nbrs, rng)
}

// Move implements core.Protocol: first enabled rule fires.
func (e *Engine[S]) Move(v core.View[S]) (S, bool) {
	for i := range e.rules {
		if e.rules[i].Guard(v) {
			e.firings[i].Add(1)
			return e.rules[i].Action(v), true
		}
	}
	return v.Self, false
}

// Firings returns the per-rule firing counts accumulated so far, in rule
// order. Counters are atomic, so concurrent executors may share an
// engine.
func (e *Engine[S]) Firings() map[string]int64 {
	out := make(map[string]int64, len(e.rules))
	for i := range e.rules {
		out[e.rules[i].Name] = e.firings[i].Load()
	}
	return out
}

// String renders the rule system like the paper's figures.
func (e *Engine[S]) String() string {
	s := "Algorithm " + e.name + ":\n"
	for _, r := range e.rules {
		s += fmt.Sprintf("  %s: ... [%s]\n", r.Name, r.Comment)
	}
	return s
}

// SMMRules transcribes Figure 1 verbatim. proposers(v) is the set
// {j ∈ N(i) : j → i}; the rule text follows the paper's notation.
func SMMRules() *Engine[core.Pointer] {
	proposerMin := func(v core.View[core.Pointer]) (graph.NodeID, bool) {
		for _, j := range v.Nbrs { // ascending: first hit is the minimum
			pj := v.Peer(j)
			if !pj.IsNull() && pj.Node() == v.ID {
				return j, true
			}
		}
		return 0, false
	}
	minNull := func(v core.View[core.Pointer]) (graph.NodeID, bool) {
		for _, j := range v.Nbrs {
			if v.Peer(j).IsNull() {
				return j, true
			}
		}
		return 0, false
	}
	return NewEngine[core.Pointer]("SMM-figure1",
		func(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) core.Pointer {
			return core.NewSMM().Random(id, nbrs, rng)
		},
		Rule[core.Pointer]{
			Name:    "R1",
			Comment: "accept proposal",
			// (i→Λ) ∧ (∃j ∈ N(i) : j→i)  ⇒  i→j
			Guard: func(v core.View[core.Pointer]) bool {
				if !v.Self.IsNull() {
					return false
				}
				_, ok := proposerMin(v)
				return ok
			},
			Action: func(v core.View[core.Pointer]) core.Pointer {
				j, _ := proposerMin(v)
				return core.PointAt(j)
			},
		},
		Rule[core.Pointer]{
			Name:    "R2",
			Comment: "make proposal",
			// (i→Λ) ∧ (∀k ∈ N(i): k↛i) ∧ (∃j ∈ N(i): j→Λ)  ⇒  i→min{j ∈ N(i): j→Λ}
			Guard: func(v core.View[core.Pointer]) bool {
				if !v.Self.IsNull() {
					return false
				}
				if _, anyProposer := proposerMin(v); anyProposer {
					return false
				}
				_, ok := minNull(v)
				return ok
			},
			Action: func(v core.View[core.Pointer]) core.Pointer {
				j, _ := minNull(v)
				return core.PointAt(j)
			},
		},
		Rule[core.Pointer]{
			Name:    "R3",
			Comment: "back-off",
			// (i→j ∧ j→k, k ∉ {Λ, i})  ⇒  i→Λ
			// (plus the dangling-pointer repair of the message-passing
			// executors: a pointer at a non-neighbor backs off too)
			Guard: func(v core.View[core.Pointer]) bool {
				if v.Self.IsNull() {
					return false
				}
				j := v.Self.Node()
				if !contains(v.Nbrs, j) {
					return true
				}
				pj := v.Peer(j)
				return !pj.IsNull() && pj.Node() != v.ID
			},
			Action: func(core.View[core.Pointer]) core.Pointer { return core.Null },
		},
	)
}

// SMIRules transcribes Figure 4 verbatim.
func SMIRules() *Engine[bool] {
	biggerIn := func(v core.View[bool]) bool {
		for _, j := range v.Nbrs {
			if j > v.ID && v.Peer(j) {
				return true
			}
		}
		return false
	}
	return NewEngine[bool]("SMI-figure4",
		func(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) bool {
			return core.NewSMI().Random(id, nbrs, rng)
		},
		Rule[bool]{
			Name:    "R1",
			Comment: "enter the set",
			// (x(i)=0) ∧ (¬∃j ∈ N(i): j>i ∧ x(j)=1)  ⇒  x(i)=1
			Guard:  func(v core.View[bool]) bool { return !v.Self && !biggerIn(v) },
			Action: func(core.View[bool]) bool { return true },
		},
		Rule[bool]{
			Name:    "R2",
			Comment: "leave the set",
			// (x(i)=1) ∧ (∃j ∈ N(i): j>i ∧ x(j)=1)  ⇒  x(i)=0
			Guard:  func(v core.View[bool]) bool { return v.Self && biggerIn(v) },
			Action: func(core.View[bool]) bool { return false },
		},
	)
}

func contains(nbrs []graph.NodeID, j graph.NodeID) bool {
	for _, k := range nbrs {
		if k == j {
			return true
		}
	}
	return false
}
