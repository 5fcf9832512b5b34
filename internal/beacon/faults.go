package beacon

import (
	"math"
	"math/rand"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
)

// FaultNetwork adapts Network to faults.Target. Unlike the round-based
// executors, the beacon model realizes most faults natively: a removed
// link is discovered only when the neighbor timeout t_ij expires
// (DetectionLag), a beacon-loss burst drops in-flight beacons on the
// link, and a frozen neighbor table serves genuinely stale reads from
// the discrete-event state. One Target round is one beacon period TB,
// driven by Network.StepRound.
type FaultNetwork[S comparable] struct {
	n *Network[S]
}

// NewFaultNetwork builds a beacon network with fault hooks over
// topology g.
func NewFaultNetwork[S comparable](p core.Protocol[S], g *graph.Graph, states []S, prm Params, rng *rand.Rand) *FaultNetwork[S] {
	return &FaultNetwork[S]{n: NewNetwork(p, g, states, prm, rng)}
}

// Network returns the wrapped simulator.
func (f *FaultNetwork[S]) Network() *Network[S] { return f.n }

// Model implements faults.Target.
func (f *FaultNetwork[S]) Model() string { return "beacon" }

// Topology implements faults.Target.
func (f *FaultNetwork[S]) Topology() *graph.Graph { return f.n.g }

// Config implements faults.Target (a snapshot; see Network.Config).
func (f *FaultNetwork[S]) Config() core.Config[S] { return f.n.Config() }

// WriteState implements faults.Target. Neighbors learn the new state
// from the node's next beacon; the node itself must re-evaluate, so it
// is marked dirty.
func (f *FaultNetwork[S]) WriteState(v graph.NodeID, s S) {
	nd := f.n.nodes[v]
	nd.state = s
	nd.dirty = true
}

// SetLink implements faults.Target. The endpoints of a removed link
// notice only when their timers t_ij expire; a new link is discovered
// by the first beacon crossing it — both exactly as in AddLink and
// RemoveLink.
func (f *FaultNetwork[S]) SetLink(e graph.Edge, present bool) {
	if present {
		f.n.g.AddEdge(e.U, e.V)
		return
	}
	f.n.g.RemoveEdge(e.U, e.V)
	delete(f.n.linkDrop, e)
}

// DropLink implements faults.Target: the link drops all beacons for the
// given number of beacon periods, measured from the current round edge.
func (f *FaultNetwork[S]) DropLink(e graph.Edge, rounds int) {
	until := f.n.stepTo + float64(rounds)*f.n.prm.TB
	if until > f.n.linkDrop[e] {
		f.n.linkDrop[e] = until
	}
}

// Freeze implements faults.Target: node v's neighbor table stops
// accepting state updates (but not liveness refreshes) for the given
// number of beacon periods.
func (f *FaultNetwork[S]) Freeze(v graph.NodeID, rounds int) {
	until := f.n.stepTo + float64(rounds)*f.n.prm.TB
	if until > f.n.staleUntil[v] {
		f.n.staleUntil[v] = until
	}
}

// Step implements faults.Target: one beacon period.
func (f *FaultNetwork[S]) Step() int { return f.n.StepRound() }

// Warmup implements faults.Target: neighbor tables start empty and
// need a few beacon periods of discovery before nodes act.
func (f *FaultNetwork[S]) Warmup() int { return 3 }

// DetectionLag implements faults.Target: a vanished link is noticed
// when the timeout t_ij = TimeoutFactor·TB expires, plus one period of
// slack for beacon phase.
func (f *FaultNetwork[S]) DetectionLag() int {
	return int(math.Ceil(f.n.prm.TimeoutFactor)) + 1
}

// QuietRounds implements faults.Target: beacon phases are unaligned, so
// one quiet period is not proof of a fixed point; two are.
func (f *FaultNetwork[S]) QuietRounds() int { return 2 }

// Close implements faults.Target; the event queue needs no teardown.
func (f *FaultNetwork[S]) Close() {}

var _ faults.Target[bool] = (*FaultNetwork[bool])(nil)
