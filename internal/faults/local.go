package faults

import (
	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// LocalChecker is the per-epoch legitimacy check of a long-lived
// configuration: it gives the verdict and the words of its full checker
// while reading only the part of the configuration an epoch touched.
//
// It keeps a copy of the last state vector a full scan or a local check
// verified legitimate, with the graph version that copy accounts for.
// A check diffs the live states against the copy with one sequential
// compare, then evaluates the protocol's per-node predicate on every
// changed node, on every current neighbor of a changed node and on both
// endpoints of every link flip reported since the copy was taken. The
// changed set comes from the diff, not from an engine's frontier, so
// the check stays independent of the code it guards.
//
// That region is enough because each protocol's legitimacy is the
// conjunction of its node predicate over all nodes, and a node outside
// the region reads the same values it read when the copy was verified.
// SMI's predicate at v reads only v's closed neighborhood. SMM's reads
// radius 2, because matched(w) reads st[st[w]]: a node whose matched
// status can change is a changed node or points at one, and a valid
// pointer targets a neighbor, so it is in the region; an invalid one is
// a changed node's or a flipped link's endpoint, so it is in the region
// and fails there.
//
// When any region node fails, when no verified copy exists, or when the
// graph's version is not the one the checker accounted for (an edit
// nobody reported through Flip), the check runs the full checker and
// returns its error, so the words are exactly the full scan's; after a
// failure the copy is dropped until a full scan passes again.
type LocalChecker[S comparable] struct {
	full Checker[S]
	rule nodeRule[S]
	// base is the verified copy, meaningful only while ok is set; g and
	// version are the graph it was verified on and the version of that
	// graph it accounts for, and flips the edges reported since.
	base    []S
	g       *graph.Graph
	version uint64
	flips   []graph.Edge
	ok      bool
}

// nodeRule is one protocol's legitimacy predicate localized to node v:
// the configuration is legitimate exactly when it holds at every node.
// It must not panic on out-of-range states; it only answers for nodes
// of g, on a state vector of g.N() entries.
type nodeRule[S comparable] interface {
	//selfstab:noalloc
	holds(g *graph.Graph, st []S, v graph.NodeID) bool
}

// NewSMMLocalChecker returns a LocalChecker for SMM whose full scan is
// SMMChecker.
func NewSMMLocalChecker() *LocalChecker[core.Pointer] {
	return &LocalChecker[core.Pointer]{full: SMMChecker, rule: smmRule{}}
}

// NewSMILocalChecker returns a LocalChecker for SMI whose full scan is
// SMIChecker.
func NewSMILocalChecker() *LocalChecker[bool] {
	return &LocalChecker[bool]{full: SMIChecker, rule: smiRule{}}
}

// Check verifies cfg, locally when a verified copy of an earlier
// configuration of the same graph exists, and reports whether it ran
// the full scan instead.
func (c *LocalChecker[S]) Check(cfg core.Config[S]) (scanned bool, err error) {
	if c.local(cfg) {
		return false, nil
	}
	return true, c.Scan(cfg)
}

// Scan runs the full checker. A legitimate cfg becomes the copy later
// checks diff against; an illegitimate one drops the copy.
func (c *LocalChecker[S]) Scan(cfg core.Config[S]) error {
	err := c.full(cfg)
	c.flips = c.flips[:0]
	c.ok = err == nil
	if c.ok {
		c.base = append(c.base[:0], cfg.States...)
		c.g, c.version = cfg.G, cfg.G.Version()
	}
	return err
}

// Flip reports one link edit: before and after are the graph's version
// around it. The link's endpoints join the next check's region when
// before is the version the checker accounts for. Otherwise an edit
// went unreported, and since versions only grow, the graph's version
// never again matches the checker's: the next check scans in full.
func (c *LocalChecker[S]) Flip(e graph.Edge, before, after uint64) {
	if c.ok && before == c.version && after != before {
		c.flips = append(c.flips, e)
		c.version = after
	}
}

// Reset drops the copy: the next check runs the full scan. A restore
// that rewrites the configuration wholesale calls it.
func (c *LocalChecker[S]) Reset() { c.ok = false }

// local reports whether the region the diff and the reported flips
// span holds, and on success makes cfg the verified copy. It updates
// the copy while it diffs; a failure leaves the copy dropped by the
// full scan that follows.
//
//selfstab:noalloc
func (c *LocalChecker[S]) local(cfg core.Config[S]) bool {
	st, g, base := cfg.States, cfg.G, c.base
	if !c.ok || g != c.g || g.Version() != c.version || len(st) != g.N() || len(st) != len(base) {
		return false
	}
	for v := range st {
		if st[v] == base[v] {
			continue
		}
		base[v] = st[v]
		id := graph.NodeID(v)
		if !c.rule.holds(g, st, id) {
			return false
		}
		for _, w := range g.Neighbors(id) {
			if !c.rule.holds(g, st, w) {
				return false
			}
		}
	}
	for _, e := range c.flips {
		if !c.rule.holds(g, st, e.U) || !c.rule.holds(g, st, e.V) {
			return false
		}
	}
	c.flips = c.flips[:0]
	return true
}

// smmRule is SMM's node predicate: v's pointer is null or at a
// neighbor, and v is matched or every neighbor is. An edge with no
// matched endpoint fails at both endpoints, so the conjunction over all
// nodes is SMMChecker's predicate.
type smmRule struct{}

//selfstab:noalloc
func (smmRule) holds(g *graph.Graph, st []core.Pointer, v graph.NodeID) bool {
	if p := st[v]; p != core.Null && !g.HasEdge(v, graph.NodeID(p)) {
		return false
	}
	if matched(st, v) {
		return true
	}
	for _, w := range g.Neighbors(v) {
		if !matched(st, w) {
			return false
		}
	}
	return true
}

// smiRule is SMI's node predicate: an in-set v has no in-set neighbor,
// and an out-of-set v has one.
type smiRule struct{}

//selfstab:noalloc
func (smiRule) holds(g *graph.Graph, st []bool, v graph.NodeID) bool {
	for _, w := range g.Neighbors(v) {
		if st[w] {
			return !st[v]
		}
	}
	return st[v]
}
