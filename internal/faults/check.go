package faults

import (
	"fmt"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Checker decides whether a converged configuration is legitimate,
// returning nil for legitimate and a descriptive error otherwise. The
// monitor invokes it only on quiescent configurations, which is exactly
// when the paper's legitimacy predicates are meaningful.
type Checker[S comparable] func(cfg core.Config[S]) error

// Spec is one protocol's per-epoch claim: every epoch re-converges, from
// whatever configuration its fault left, within Bound(n) rounds on n
// nodes, to a configuration Check accepts. The fault monitor, the soak
// campaigns, experiment E15 and the service all read the bound from
// here.
type Spec[S comparable] struct {
	Check Checker[S]
	Bound func(n int) int
}

var (
	// SMM is Theorem 1's claim: n+1 rounds to a maximal matching.
	SMM = Spec[core.Pointer]{Check: SMMChecker, Bound: func(n int) int { return n + 1 }}
	// SMI is 2n+2 rounds to a maximal independent set: the paper's O(n)
	// with the constant experiment E15 records.
	SMI = Spec[bool]{Check: SMIChecker, Bound: func(n int) int { return 2*n + 2 }}
)

// SMMChecker verifies the SMM legitimacy predicate: every non-null
// pointer targets a neighbor (checked first, because the type
// classifier is only defined on valid configurations) and the mutually
// pointing pairs form a maximal matching. It is the oracle and the full
// scan of NewSMMLocalChecker, so it allocates nothing on a legitimate
// configuration.
//
// Once pointers are valid the pairs are always a matching — one
// pointer per node puts each node in at most one mutual pair — so only
// maximality is scanned for. The violation reported is the first edge
// {u,w} in g.Edges() order (u ascending, then w > u) with neither
// endpoint matched, in the words verify.IsMaximalMatching over
// core.MatchingOf uses; FuzzSMMChecker pins that equivalence.
func SMMChecker(cfg core.Config[core.Pointer]) error {
	if err := core.ValidSMMConfig(cfg); err != nil {
		return err
	}
	st := cfg.States
	for u := range st {
		if matched(st, graph.NodeID(u)) {
			continue
		}
		for _, w := range cfg.G.Neighbors(graph.NodeID(u)) {
			if w > graph.NodeID(u) && !matched(st, w) {
				return fmt.Errorf("SMM: verify: matching not maximal: edge %v has no matched endpoint", graph.Edge{U: graph.NodeID(u), V: w})
			}
		}
	}
	return nil
}

// matched reports whether v and its target point at each other; a
// pointer out of range matches nothing.
func matched(st []core.Pointer, v graph.NodeID) bool {
	p := st[v]
	return p != core.Null && uint(p) < uint(len(st)) && st[p] == core.PointAt(v)
}

// SMIChecker verifies the SMI legitimacy predicate: the in-set nodes
// form a maximal independent set. It is the oracle and the full scan of
// NewSMILocalChecker, so it allocates nothing on a legitimate
// configuration: one scan over the states and rows checks independence
// at in-set nodes and domination at the others.
//
// The violation reported is the one verify.IsMaximalIndependentSet over
// core.SetOf reports, in its words: an in-set node past the graph's
// nodes first, then the first in-set node, ascending, with an in-set
// neighbor (the first such neighbor), and only then the first node left
// undominated. FuzzSMIChecker pins that equivalence.
func SMIChecker(cfg core.Config[bool]) error {
	st, n := cfg.States, cfg.G.N()
	for v := n; v < len(st); v++ {
		if st[v] {
			return fmt.Errorf("SMI: verify: node %d out of range", v)
		}
	}
	undominated := -1
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		member := inSet(st, id)
		dominated := member
		for _, w := range cfg.G.Neighbors(id) {
			if !inSet(st, w) {
				continue
			}
			if member {
				return fmt.Errorf("SMI: verify: adjacent members %d and %d", v, w)
			}
			dominated = true
			break
		}
		if !dominated && undominated < 0 {
			undominated = v
		}
	}
	if undominated >= 0 {
		return fmt.Errorf("SMI: verify: node %d not dominated", undominated)
	}
	return nil
}

// inSet reports whether v is in the set; nodes past the state vector
// are not.
func inSet(st []bool, v graph.NodeID) bool {
	return int(v) < len(st) && st[v]
}
