package faults

import (
	"sort"

	"selfstab/internal/graph"
)

// overlayKey addresses one direction of one link: what viewer believes
// about nbr.
type overlayKey struct {
	Viewer, Nbr graph.NodeID
}

// overlayPin is one stale belief with a remaining lifetime in rounds.
type overlayPin[S comparable] struct {
	state S
	ttl   int
}

// Overlay pins stale per-link state views on top of an otherwise fresh
// executor. It is how the round-based lockstep executor realizes
// beacon-loss bursts (Drop) and neighbor-table staleness (Stale): the
// underlying link stays up, but for a bounded number of
// rounds the viewer keeps reading the state it last heard — exactly the
// effect of losing the neighbor's beacons while the discovery timeout
// has not yet expired. The beacon executor does not need it; it models
// both faults natively in its event queue.
//
// An Overlay is confined to its executor's Step loop and is not safe
// for concurrent use.
type Overlay[S comparable] struct {
	pins       map[overlayKey]overlayPin[S]
	expiredBuf []graph.NodeID // reused by Tick for its return value
}

// NewOverlay returns an empty overlay.
func NewOverlay[S comparable]() *Overlay[S] {
	return &Overlay[S]{pins: make(map[overlayKey]overlayPin[S])}
}

// PinLink freezes both directions of link {u,v}: for rounds rounds u
// reads sv for v and v reads su for u. Re-pinning an already-pinned
// direction keeps the older (staler) belief and extends the lifetime to
// the maximum of the two.
func (o *Overlay[S]) PinLink(u, v graph.NodeID, su, sv S, rounds int) {
	o.pin(overlayKey{Viewer: u, Nbr: v}, sv, rounds)
	o.pin(overlayKey{Viewer: v, Nbr: u}, su, rounds)
}

// PinView freezes everything viewer currently believes about its
// neighbors: for rounds rounds every Peer read by viewer returns the
// state read returns now.
func (o *Overlay[S]) PinView(viewer graph.NodeID, nbrs []graph.NodeID, read func(graph.NodeID) S, rounds int) {
	for _, j := range nbrs {
		o.pin(overlayKey{Viewer: viewer, Nbr: j}, read(j), rounds)
	}
}

func (o *Overlay[S]) pin(k overlayKey, s S, rounds int) {
	if rounds <= 0 {
		return
	}
	if p, ok := o.pins[k]; ok {
		// Keep the stalest state; extend to the longer lifetime.
		if rounds > p.ttl {
			p.ttl = rounds
			o.pins[k] = p
		}
		return
	}
	o.pins[k] = overlayPin[S]{state: s, ttl: rounds}
}

// Peer resolves viewer's belief about nbr: the pinned state if one is
// live, otherwise fresh.
func (o *Overlay[S]) Peer(viewer, nbr graph.NodeID, fresh S) S {
	if p, ok := o.pins[overlayKey{Viewer: viewer, Nbr: nbr}]; ok {
		return p.state
	}
	return fresh
}

// Unpin clears both directions of link {u,v}, e.g. when the link itself
// is removed (a gone link must not keep serving stale reads; the
// executor's neighbor lists no longer include the peer at all).
func (o *Overlay[S]) Unpin(u, v graph.NodeID) {
	delete(o.pins, overlayKey{Viewer: u, Nbr: v})
	delete(o.pins, overlayKey{Viewer: v, Nbr: u})
}

// Tick ages every pin by one round and drops the expired ones. Call it
// once at the end of each executor Step. The two passes commute across
// map iteration order: the first uniformly decrements, the second
// deletes exactly the non-positive entries.
//
// It returns the viewers that lost at least one pin this tick, sorted
// ascending with duplicates removed (deterministic despite the map
// walk). An expiry changes the viewer's effective view without any
// state changing — the read flips back from the pinned value to fresh —
// so frontier-scheduled executors must re-dirty exactly these nodes.
// The returned slice is reused by the next Tick; callers must consume
// it before then.
func (o *Overlay[S]) Tick() []graph.NodeID {
	for k, p := range o.pins {
		p.ttl--
		o.pins[k] = p
	}
	expired := o.expiredBuf[:0]
	for k, p := range o.pins {
		if p.ttl <= 0 {
			delete(o.pins, k)
			expired = append(expired, k.Viewer)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	dedup := expired[:0]
	for i, v := range expired {
		if i == 0 || v != expired[i-1] {
			dedup = append(dedup, v)
		}
	}
	o.expiredBuf = expired[:len(dedup)]
	return o.expiredBuf
}

// Empty reports whether no pins are live.
func (o *Overlay[S]) Empty() bool { return len(o.pins) == 0 }
