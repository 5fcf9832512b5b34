// Package core implements the paper's primary contribution: the
// synchronous-model self-stabilizing protocols SMM (maximal matching) and
// SMI (maximal independent set), together with the protocol abstraction
// they run under and the node-type classification (M, A°, A', PA, PM, PP)
// used by the paper's convergence analysis.
//
// # Computation model
//
// The paper's model is synchronous shared state driven by beacons: in each
// round every node receives the round-t states of all its neighbors and
// simultaneously computes its round-t+1 state by applying the first
// enabled rule. A protocol here is therefore a pure function from a local
// view (own state plus neighbor states) to the next state. The two
// executors — the lockstep simulator and the discrete-event beacon
// simulator — differ only in how they deliver the view.
package core

import (
	"math/rand"

	"selfstab/internal/graph"
)

// View is the information a node may legally consult when moving: its own
// identity and state, and the states its neighbors reported in their last
// beacons. Peer must be called only with IDs from Nbrs.
type View[S any] struct {
	// ID is the executing node.
	ID graph.NodeID
	// Self is the node's current state.
	Self S
	// Nbrs lists the node's current neighbors in ascending ID order.
	Nbrs []graph.NodeID
	// Peer returns the last known state of a neighbor. It is the one
	// way Move reads a neighbor, whatever the executor: mediated
	// implementations (stale views, fault filters, beacon neighbor
	// tables) may observe the sequence of reads.
	Peer func(graph.NodeID) S
}

// Protocol is a self-stabilizing protocol in the synchronous beacon model.
// The state type S must be comparable so executors and verifiers can
// detect convergence and snapshot configurations cheaply.
//
// Move must be deterministic up to the protocol's own internal randomness
// (protocols that randomize, such as the daemon-refinement wrapper, own
// per-node generators so concurrent executors stay race-free).
type Protocol[S comparable] interface {
	// Name identifies the protocol in traces and reports.
	Name() string
	// Random draws an arbitrary initial state for node id, whose neighbor
	// list is nbrs. Self-stabilization demands convergence from every
	// state, so Random must cover the full state space.
	Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) S
	// Move evaluates the rules at the viewing node and returns the next
	// state plus whether the node is active: privileged in the current
	// configuration. For deterministic protocols active coincides with
	// "the state changed"; randomized protocols report active even in
	// rounds where a coin kept the state unchanged, and wrappers that
	// piggyback auxiliary data (e.g. refinement priorities) may change
	// auxiliary fields while inactive. Executors must always store the
	// returned state and use the active flag — never state inequality —
	// to detect stabilization: a configuration is stable exactly when no
	// node reports active.
	Move(v View[S]) (next S, moved bool)
}

// Kernel is an optional protocol fast path for the whole lockstep
// round, in the round's three barrier-separated phases: MoveBatch
// evaluates the drained nodes, then every shard commits its own nodes
// (CommitBatch — disjoint writes, no reads of other shards' states),
// then, after all commits land, every shard derives its re-evaluation
// marks from the fully post-round state vector (MarkBatch — concurrent
// reads of immutable-for-the-phase states, writes only to the shard's
// own frontier). Executors use it on their unfiltered hot path and fall
// back to Move everywhere reads are mediated; the metamorphic suite
// replays both paths for equality at 1–8 shards. Every method must be
// safe for concurrent calls over disjoint id sets (MarkBatch with
// distinct frontiers).
type Kernel[S comparable] interface {
	// MoveBatch writes next[id] and moved[id] for every id in ids, from a
	// direct state vector and the graph's row store (g.Neighbors). It
	// must be observationally identical to calling Move per id with a
	// View whose Peer reads states. Allocation-free contract (noalloc).
	//
	//selfstab:noalloc
	MoveBatch(ids []graph.NodeID, g *graph.Graph, states []S, next []S, moved []bool)
	// CommitBatch installs next[id] into states[id] for every id in ids
	// and returns the number of ids with moved[id] set. Allocation-free
	// contract (noalloc); write-ownership checked by shardsafe.
	//
	//selfstab:noalloc
	CommitBatch(ids []graph.NodeID, states []S, next []S, moved []bool) int
	// MarkBatch marks on f every node whose view this shard's movers
	// changed, reading only post-round states. The generic install marks
	// the full closed neighborhood of every changed node; MarkBatch may
	// mark any subset that still covers the nodes whose next Move output
	// could differ because of this round's changes (e.g. an SMM node
	// holding a pointer reads only its target, an SMI node reads only its
	// bigger neighbors). The SMM and SMI MarkBatch comments argue why
	// their tests hold in any install order. Under-marking breaks
	// byte-identity with the full scan. Allocation-free contract
	// (noalloc); phase discipline checked by shardsafe.
	//
	//selfstab:noalloc
	MarkBatch(ids []graph.NodeID, g *graph.Graph, states []S, moved []bool, f *graph.Frontier)
}

// NeighborAware is implemented by protocols whose states reference
// neighbors (e.g. SMM's pointer). When the neighbor-discovery protocol
// drops a neighbor — its beacons timed out, or the link-layer reported
// the link gone — executors call OnNeighborLost so the node can repair a
// dangling reference. Protocols with self-contained states (SMI,
// coloring) simply don't implement it.
type NeighborAware[S comparable] interface {
	// OnNeighborLost returns the repaired state of node self after
	// neighbor lost disappeared from its neighbor list.
	OnNeighborLost(self graph.NodeID, s S, lost graph.NodeID) S
}

// RepairState applies OnNeighborLost if the protocol supports it and
// returns the (possibly unchanged) state.
func RepairState[S comparable](p Protocol[S], self graph.NodeID, s S, lost graph.NodeID) S {
	if na, ok := p.(NeighborAware[S]); ok {
		return na.OnNeighborLost(self, s, lost)
	}
	return s
}

// Config is a global configuration: a topology plus one state per node,
// indexed by node ID. It is the unit verifiers and traces operate on.
type Config[S comparable] struct {
	G      *graph.Graph
	States []S
}

// NewConfig allocates a configuration for g with zero-valued states.
func NewConfig[S comparable](g *graph.Graph) Config[S] {
	return Config[S]{G: g, States: make([]S, g.N())}
}

// Randomize fills every state from p.Random. It is the one draw of a
// whole arbitrary configuration; single-node draws (corruption,
// resurrection) call p.Random directly.
func (c Config[S]) Randomize(p Protocol[S], rng *rand.Rand) {
	for v := range c.States {
		id := graph.NodeID(v)
		c.States[v] = p.Random(id, c.G.Neighbors(id), rng)
	}
}

// DeriveSeed mixes a run seed with stream names and integer coordinates
// into an independent 64-bit seed, so every stream a run draws from
// depends only on its own coordinates, never on how many draws other
// streams made first. It hashes with FNV-64a the seed's 8
// little-endian bytes, then each name followed by a 0 byte, then each
// coordinate's 8 little-endian bytes, and finishes with the splitmix64
// finalizer, so seeds of neighboring coordinates differ in about half
// their bits. Experiment tables, soak reports and journaled corruptions
// all replay through it; TestDeriveSeedGolden pins its output.
func DeriveSeed(seed int64, names []string, coords ...int) int64 {
	h := fnvWord(14695981039346656037, uint64(seed))
	for _, s := range names {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
		h *= fnvPrime // the 0 byte
	}
	for _, c := range coords {
		h = fnvWord(h, uint64(int64(c)))
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return int64(h ^ (h >> 31))
}

const fnvPrime = 1099511628211

// fnvWord folds x's 8 little-endian bytes into the FNV-64a state h.
func fnvWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	return h
}

// View builds the local view of node id over the configuration.
func (c Config[S]) View(id graph.NodeID) View[S] {
	return View[S]{
		ID:   id,
		Self: c.States[id],
		Nbrs: c.G.Neighbors(id),
		Peer: func(j graph.NodeID) S { return c.States[j] },
	}
}

// PrivilegedNodes returns all nodes that would move, in ascending order.
// One Peer reader serves every node's view: the daemons call this at
// every step.
func (c Config[S]) PrivilegedNodes(p Protocol[S]) []graph.NodeID {
	var ids []graph.NodeID
	peer := func(j graph.NodeID) S { return c.States[j] }
	for v, self := range c.States {
		id := graph.NodeID(v)
		if _, moved := p.Move(View[S]{ID: id, Self: self, Nbrs: c.G.Neighbors(id), Peer: peer}); moved {
			ids = append(ids, id)
		}
	}
	return ids
}

// Clone returns a deep copy sharing the graph but not the state slice.
func (c Config[S]) Clone() Config[S] {
	s := make([]S, len(c.States))
	copy(s, c.States)
	return Config[S]{G: c.G, States: s}
}
