package sim

import (
	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
)

// FaultLockstep adapts Lockstep to faults.Target, making the reference
// executor injectable: state writes and link flips act on the live
// configuration immediately (the lockstep model has no discovery lag),
// while beacon-loss bursts and neighbor-table staleness are served
// through a stale-view overlay. The overlay is consulted only while it
// holds a live pin: DropLink and Freeze switch it on, and the Tick or
// link removal that empties it switches it off, so pin-free rounds read
// fresh states and run the protocol's batch kernel, where it has one.
type FaultLockstep[S comparable] struct {
	l  *Lockstep[S]
	ov *faults.Overlay[S]
}

// NewFaultLockstep wraps protocol p over configuration cfg (used in
// place, as in NewLockstep) with fault hooks installed.
func NewFaultLockstep[S comparable](p core.Protocol[S], cfg core.Config[S]) *FaultLockstep[S] {
	return withFaults(NewLockstep(p, cfg))
}

// NewReferenceFaultLockstep is NewFaultLockstep over the full-scan
// reference engine: identical fault semantics, no frontier scheduling.
// The metamorphic fault tests replay the same schedule on both and
// require byte-identical reports.
func NewReferenceFaultLockstep[S comparable](p core.Protocol[S], cfg core.Config[S]) *FaultLockstep[S] {
	return withFaults(NewReferenceLockstep(p, cfg))
}

// NewShardedFaultLockstep is NewFaultLockstep at the given shard count
// (clamped to [1, n]): identical fault semantics, with fault-footprint
// dirty marks routed to the owning shards' frontiers. The sharded
// metamorphic fault tests replay the same schedule on this and on the
// reference engine at 1–8 shards and require byte-identical reports.
func NewShardedFaultLockstep[S comparable](p core.Protocol[S], cfg core.Config[S], shards int) *FaultLockstep[S] {
	return withFaults(NewShardedLockstep(p, cfg, shards))
}

// withFaults installs a stale-view overlay as l's peer filter, off
// until the first pin.
func withFaults[S comparable](l *Lockstep[S]) *FaultLockstep[S] {
	f := &FaultLockstep[S]{l: l, ov: faults.NewOverlay[S]()}
	l.filterPeers(f.ov.Peer)
	f.syncFilter()
	return f
}

// syncFilter routes peer reads through the overlay exactly while it
// holds a pin. Every overlay edit is followed by it.
func (f *FaultLockstep[S]) syncFilter() { f.l.filtered = !f.ov.Empty() }

// Lockstep returns the wrapped executor.
func (f *FaultLockstep[S]) Lockstep() *Lockstep[S] { return f.l }

// Model implements faults.Target.
func (f *FaultLockstep[S]) Model() string { return "lockstep" }

// Topology implements faults.Target.
func (f *FaultLockstep[S]) Topology() *graph.Graph { return f.l.cfg.G }

// Config implements faults.Target: the live configuration.
func (f *FaultLockstep[S]) Config() core.Config[S] { return f.l.cfg }

// WriteState implements faults.Target. The overwrite changes v's own
// view and the view of every neighbor, so that closed neighborhood is
// re-dirtied.
func (f *FaultLockstep[S]) WriteState(v graph.NodeID, s S) {
	f.l.cfg.States[v] = s
	f.l.DirtyState(v)
}

// SetLink implements faults.Target. Removing a link clears any stale
// pins on it and runs the dangling-reference repair at both endpoints,
// mirroring the link layer reporting the loss. Either direction of the
// flip re-dirties the closed neighborhoods of both endpoints (DirtyEdge
// also records the graph version, so the fault's footprint stays exact
// instead of falling back to a full re-dirty).
func (f *FaultLockstep[S]) SetLink(e graph.Edge, present bool) {
	if present {
		if f.l.cfg.G.AddEdge(e.U, e.V) {
			f.l.DirtyEdge(e.U, e.V)
		}
		return
	}
	if f.l.cfg.G.RemoveEdge(e.U, e.V) {
		f.ov.Unpin(e.U, e.V)
		f.syncFilter()
		for _, v := range [2]graph.NodeID{e.U, e.V} {
			other := e.U ^ e.V ^ v
			f.l.cfg.States[v] = core.RepairState(f.l.p, v, f.l.cfg.States[v], other)
		}
		f.l.DirtyEdge(e.U, e.V)
	}
}

// DropLink implements faults.Target: both endpoints keep reading the
// state the other has right now for the given number of rounds. Only
// the two viewers' own reads change, so only they are re-dirtied.
func (f *FaultLockstep[S]) DropLink(e graph.Edge, rounds int) {
	st := f.l.cfg.States
	f.ov.PinLink(e.U, e.V, st[e.U], st[e.V], rounds)
	f.syncFilter()
	f.l.DirtyView(e.U)
	f.l.DirtyView(e.V)
}

// Freeze implements faults.Target: node v's entire neighbor view is
// pinned to the current states for the given number of rounds. Only v's
// reads change.
func (f *FaultLockstep[S]) Freeze(v graph.NodeID, rounds int) {
	st := f.l.cfg.States
	f.ov.PinView(v, f.l.cfg.G.Neighbors(v), func(j graph.NodeID) S { return st[j] }, rounds)
	f.syncFilter()
	f.l.DirtyView(v)
}

// Step implements faults.Target: one lockstep round, then one overlay
// tick so pins age in round units. A pin expiring flips the viewer's
// read back to fresh without any state changing, so every such viewer
// is re-dirtied.
func (f *FaultLockstep[S]) Step() int {
	moved := f.l.Step()
	if f.l.filtered { // an empty overlay has nothing to age
		for _, v := range f.ov.Tick() {
			f.l.DirtyView(v)
		}
		f.syncFilter()
	}
	return moved
}

// Warmup implements faults.Target: lockstep needs none.
func (f *FaultLockstep[S]) Warmup() int { return 0 }

// DetectionLag implements faults.Target: topology changes are visible
// in the very next round.
func (f *FaultLockstep[S]) DetectionLag() int { return 0 }

// QuietRounds implements faults.Target: one zero-move round is a fixed
// point in the deterministic lockstep model.
func (f *FaultLockstep[S]) QuietRounds() int { return 1 }

// Close implements faults.Target: releases the engine's worker pool, if
// any (single-shard engines hold no resources).
func (f *FaultLockstep[S]) Close() { f.l.Close() }

var _ faults.Target[bool] = (*FaultLockstep[bool])(nil)
