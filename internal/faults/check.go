package faults

import (
	"fmt"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/verify"
)

// Checker decides whether a converged configuration is legitimate,
// returning nil for legitimate and a descriptive error otherwise. The
// monitor invokes it only on quiescent configurations, which is exactly
// when the paper's legitimacy predicates are meaningful.
type Checker[S comparable] func(cfg core.Config[S]) error

// SMMChecker verifies the SMM legitimacy predicate: every non-null
// pointer targets a neighbor (checked first, because the type
// classifier is only defined on valid configurations) and the mutually
// pointing pairs form a maximal matching. It runs after every service
// epoch, so it allocates nothing on a legitimate configuration.
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

// matched reports whether v and its target point at each other; st
// must hold only null or in-range pointers.
func matched(st []core.Pointer, v graph.NodeID) bool {
	p := st[v]
	return p != core.Null && st[p] == core.PointAt(v)
}

// SMIChecker verifies the SMI legitimacy predicate: the in-set nodes
// form a maximal independent set.
func SMIChecker(cfg core.Config[bool]) error {
	if err := verify.IsMaximalIndependentSet(cfg.G, core.SetOf(cfg)); err != nil {
		return fmt.Errorf("SMI: %w", err)
	}
	return nil
}
