package beacon

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Params configures the simulated link layer. Times are in arbitrary
// continuous units; TB is the reference unit ("one beacon period").
type Params struct {
	// TB is the beacon period t_b. Must be positive.
	TB float64
	// Jitter desynchronizes beacon timers: each interval is drawn from
	// TB * (1 ± U(0, Jitter)). 0 = perfectly periodic.
	Jitter float64
	// Delay is the base one-way link delay per beacon.
	Delay float64
	// DelayJitter perturbs each delay by ± U(0, DelayJitter) * Delay.
	// FIFO order per directed link is enforced regardless.
	DelayJitter float64
	// Loss is the probability an individual beacon is lost in transit.
	Loss float64
	// TimeoutFactor sets the neighbor timeout t_ij = TimeoutFactor * TB:
	// a neighbor not heard for that long is presumed gone.
	TimeoutFactor float64
	// Synchronized starts every beacon timer at exactly TB instead of a
	// random phase. With Jitter = 0 this makes the beacon model coincide
	// with the lockstep model round for round — including reproducing the
	// four-cycle counterexample, which random phases otherwise break by
	// serializing the moves.
	Synchronized bool
}

// DefaultParams returns a loss-free, low-delay link layer with a small
// phase jitter — the setting in which the beacon model and the lockstep
// model provably coincide round for round.
func DefaultParams() Params {
	return Params{TB: 1.0, Jitter: 0.05, Delay: 0.05, TimeoutFactor: 3.0}
}

// Result summarizes a beacon-model run.
type Result struct {
	// Time is the simulated time of the last protocol activity.
	Time float64
	// Rounds is Time expressed in beacon periods (Time / TB) — the
	// paper's unit of convergence.
	Rounds float64
	// Moves counts protocol moves (active evaluations).
	Moves int
	// Actions counts rule evaluations (a node acting after hearing all
	// neighbors), whether or not a rule fired.
	Actions int
	// Stable reports whether the network went quiet before the deadline.
	Stable bool
}

// String renders e.g. "stable at t=8.13 (8.1 beacon rounds, 23 moves)".
func (r Result) String() string {
	if r.Stable {
		return fmt.Sprintf("stable at t=%.2f (%.1f beacon rounds, %d moves)", r.Time, r.Rounds, r.Moves)
	}
	return fmt.Sprintf("NOT stable by t=%.2f (%.1f beacon rounds, %d moves)", r.Time, r.Rounds, r.Moves)
}

// nbrInfo is one row of a node's neighbor table.
type nbrInfo[S comparable] struct {
	state     S
	lastHeard float64
	heard     bool // heard since the node's last action
}

// netNode is the per-node runtime state.
type netNode[S comparable] struct {
	id      graph.NodeID
	state   S
	nbrs    map[graph.NodeID]*nbrInfo[S]
	unheard int // table entries with heard == false
	// ready gates rule evaluation behind a one-period warmup (set at the
	// second own-beacon timer) so a cold-started node does not act on a
	// half-discovered neighbor table.
	ready  bool
	timers int
	// lastArrival enforces FIFO per outgoing directed link.
	lastArrival map[graph.NodeID]float64
	// dirty is the frontier analogue of the event-driven model: it is set
	// whenever the node's local view changes (table membership, a
	// recorded neighbor state, or its own state) and cleared by an
	// evaluation. A clean act still counts as an action and consumes the
	// round's beacons, but skips the provably no-op Move call.
	dirty bool
	// nbrList caches the sorted neighbor-ID slice served to Move,
	// invalidated on table membership changes; peerFn is the table read
	// closure, allocated once per node instead of once per action.
	nbrList   []graph.NodeID
	nbrListOK bool
	peerFn    func(graph.NodeID) S
}

// Network is the discrete-event simulator. It is not safe for concurrent
// use; the event loop is single-threaded by design (determinism).
type Network[S comparable] struct {
	p   core.Protocol[S]
	g   *graph.Graph
	prm Params
	rng *rand.Rand

	now          float64
	seq          uint64
	q            eventQueue
	nodes        []*netNode[S]
	lastActivity float64
	moves        int
	actions      int
	stats        Stats

	// stepTo is the upper edge of the last StepRound window; the fault
	// layer drives the simulation one beacon period at a time through it.
	stepTo float64
	// linkDrop maps a link to the time until which its beacons are
	// dropped in both directions (a beacon-loss burst). Entries are
	// removed lazily once expired.
	linkDrop map[graph.Edge]float64
	// staleUntil[v], when in the future, freezes node v's neighbor
	// table: beacons still refresh liveness (no spurious expiry) but do
	// not overwrite the recorded states, so v acts on stale reads.
	staleUntil []float64
	// fullScan is reference mode: evaluate Move on every action.
	fullScan bool
}

// Stats counts link-layer traffic, for measuring the beacon overhead the
// paper's protocol piggybacks on.
type Stats struct {
	// Sent counts beacon transmissions (one per receiver per beacon).
	Sent int
	// Delivered counts beacons processed by a receiver.
	Delivered int
	// Lost counts beacons dropped by the loss process or by a link that
	// vanished while the beacon was in flight.
	Lost int
	// Expired counts neighbor-table entries dropped by the timeout t_ij.
	Expired int
}

// NewNetwork builds a beacon network running protocol p over topology g
// with the given initial states (one per node; pointers may reference
// any current neighbor). Neighbor tables start empty and fill through
// the discovery protocol, exactly as in a cold-started deployment.
func NewNetwork[S comparable](p core.Protocol[S], g *graph.Graph, states []S, prm Params, rng *rand.Rand) *Network[S] {
	if prm.TB <= 0 {
		panic("beacon: Params.TB must be positive")
	}
	if prm.TimeoutFactor <= 1 {
		panic("beacon: Params.TimeoutFactor must exceed 1")
	}
	if len(states) != g.N() {
		panic(fmt.Sprintf("beacon: %d states for %d nodes", len(states), g.N()))
	}
	n := &Network[S]{p: p, g: g, prm: prm, rng: rng, fullScan: referenceScan.Load()}
	n.linkDrop = make(map[graph.Edge]float64)
	n.staleUntil = make([]float64, g.N())
	n.nodes = make([]*netNode[S], g.N())
	for v := range n.nodes {
		nd := &netNode[S]{
			id:          graph.NodeID(v),
			state:       states[v],
			nbrs:        make(map[graph.NodeID]*nbrInfo[S]),
			lastArrival: make(map[graph.NodeID]float64),
			dirty:       true, // any node may be privileged initially
		}
		nd.peerFn = func(j graph.NodeID) S { return nd.nbrs[j].state }
		n.nodes[v] = nd
		// Random phase offsets in [0, TB): beacons are unsynchronized
		// (unless the caller asked for lockstep-equivalent timing).
		phase := rng.Float64() * prm.TB
		if prm.Synchronized {
			phase = prm.TB
		}
		n.schedule(&event{at: phase, kind: evBeacon, node: v})
	}
	return n
}

// Now returns the current simulated time.
func (n *Network[S]) Now() float64 { return n.now }

// LinkStats returns the link-layer traffic counters so far. Sent equals
// Delivered + Lost + beacons still in flight.
func (n *Network[S]) LinkStats() Stats { return n.stats }

// Config snapshots the current protocol states over the current topology.
func (n *Network[S]) Config() core.Config[S] {
	cfg := core.NewConfig[S](n.g)
	for v, nd := range n.nodes {
		cfg.States[v] = nd.state
	}
	return cfg
}

// NeighborTable returns the IDs currently in node v's neighbor table,
// ascending — the node's local belief, which lags the true topology.
func (n *Network[S]) NeighborTable(v graph.NodeID) []graph.NodeID {
	nd := n.nodes[v]
	ids := make([]graph.NodeID, 0, len(nd.nbrs))
	for j := range nd.nbrs {
		ids = append(ids, j)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// AddLink inserts the link {u,v} into the true topology at the current
// time. Nodes learn of it when the first beacon crosses it.
func (n *Network[S]) AddLink(u, v graph.NodeID) { n.g.AddEdge(u, v) }

// RemoveLink removes the link {u,v} at the current time. In-flight
// beacons on the link are lost; the endpoints discover the loss when
// their timers t_ij expire.
func (n *Network[S]) RemoveLink(u, v graph.NodeID) { n.g.RemoveEdge(u, v) }

// Run processes events until either no protocol activity has occurred
// for quiet time units (stable) or the deadline maxTime passes. It may
// be called repeatedly: after a topology change, call Run again to
// re-stabilize.
func (n *Network[S]) Run(maxTime, quiet float64) Result {
	// The quiet window restarts at entry so that a Run after a topology
	// change actually processes events instead of inheriting the previous
	// run's quiescence.
	watermark := n.lastActivity
	if n.now > watermark {
		watermark = n.now
	}
	for len(n.q) > 0 {
		if n.lastActivity > watermark {
			watermark = n.lastActivity
		}
		if n.now-watermark >= quiet {
			break
		}
		if n.now > maxTime {
			return Result{Time: n.now, Rounds: n.now / n.prm.TB, Moves: n.moves, Actions: n.actions, Stable: false}
		}
		ev := heap.Pop(&n.q).(*event)
		n.now = ev.at
		switch ev.kind {
		case evBeacon:
			n.onBeaconTimer(ev.node)
		case evDeliver:
			n.onDeliver(ev.node, ev.from, ev.msg.(S))
		}
	}
	return Result{
		Time:    n.lastActivity,
		Rounds:  n.lastActivity / n.prm.TB,
		Moves:   n.moves,
		Actions: n.actions,
		Stable:  true,
	}
}

// StepRound advances the simulation by exactly one beacon period TB,
// processing every event in the window, and returns the number of
// protocol moves in it. It is the fault layer's logical clock: each
// StepRound is one round in the paper's sense. Mixing StepRound and Run
// on the same network is not supported.
func (n *Network[S]) StepRound() int {
	movesBefore := n.moves
	n.stepTo += n.prm.TB
	for len(n.q) > 0 && n.q[0].at <= n.stepTo {
		ev := heap.Pop(&n.q).(*event)
		n.now = ev.at
		switch ev.kind {
		case evBeacon:
			n.onBeaconTimer(ev.node)
		case evDeliver:
			n.onDeliver(ev.node, ev.from, ev.msg.(S))
		}
	}
	if n.now < n.stepTo {
		n.now = n.stepTo
	}
	return n.moves - movesBefore
}

func (n *Network[S]) schedule(ev *event) {
	ev.seq = n.seq
	n.seq++
	heap.Push(&n.q, ev)
}

// onBeaconTimer expires stale neighbors, lets the node act if it has a
// complete round of beacons, broadcasts, and reschedules.
func (n *Network[S]) onBeaconTimer(v int) {
	nd := n.nodes[v]
	nd.timers++
	if nd.timers >= 2 {
		nd.ready = true
	}
	n.expireNeighbors(nd)
	if nd.ready && nd.unheard == 0 {
		n.act(nd)
	}
	// Broadcast to everyone currently in radio range (true topology).
	for _, j := range n.g.Neighbors(nd.id) {
		n.stats.Sent++
		if until, dropped := n.linkDrop[graph.NewEdge(nd.id, j)]; dropped {
			if n.now < until {
				// Beacon-loss burst injected by the fault layer.
				n.stats.Lost++
				continue
			}
			delete(n.linkDrop, graph.NewEdge(nd.id, j))
		}
		if n.prm.Loss > 0 && n.rng.Float64() < n.prm.Loss {
			n.stats.Lost++
			continue
		}
		delay := n.prm.Delay
		if n.prm.DelayJitter > 0 {
			delay += n.prm.Delay * n.prm.DelayJitter * (2*n.rng.Float64() - 1)
		}
		at := n.now + delay
		// FIFO per directed link: never deliver before a previously sent
		// beacon on the same link.
		if prev := nd.lastArrival[j]; at <= prev {
			at = prev + 1e-9
		}
		nd.lastArrival[j] = at
		n.schedule(&event{at: at, kind: evDeliver, node: int(j), from: v, msg: nd.state})
	}
	interval := n.prm.TB
	if n.prm.Jitter > 0 {
		interval *= 1 + n.prm.Jitter*(2*n.rng.Float64()-1)
	}
	n.schedule(&event{at: n.now + interval, kind: evBeacon, node: v})
}

// onDeliver processes one received beacon.
func (n *Network[S]) onDeliver(to, from int, s S) {
	// A beacon crossing a link that vanished mid-flight is lost.
	if !n.g.HasEdge(graph.NodeID(to), graph.NodeID(from)) {
		n.stats.Lost++
		return
	}
	n.stats.Delivered++
	nd := n.nodes[to]
	info, known := nd.nbrs[graph.NodeID(from)]
	if !known {
		// Neighbor discovery: first beacon from a new neighbor — a table
		// membership change, so the cached list and the evaluation both
		// need refreshing.
		info = &nbrInfo[S]{heard: false}
		nd.nbrs[graph.NodeID(from)] = info
		nd.unheard++
		nd.nbrListOK = false
		nd.dirty = true
	}
	if !known || n.now >= n.staleUntil[to] {
		// A frozen table keeps its recorded states (stale reads) but a
		// brand-new neighbor has no previous belief to keep. Only an
		// actual value change dirties the view: a beacon repeating the
		// recorded state refreshes liveness but cannot enable a rule.
		if !known || info.state != s {
			info.state = s
			nd.dirty = true
		}
	}
	info.lastHeard = n.now
	if !info.heard {
		info.heard = true
		nd.unheard--
	}
	if nd.ready && nd.unheard == 0 && len(nd.nbrs) > 0 {
		n.act(nd)
	}
}

// expireNeighbors drops table entries whose beacons have timed out and
// repairs state references to them. Expiries are applied in ascending
// neighbor-ID order: repairs chain through the node's state, so applying
// them in map-iteration order would make the surviving state depend on
// the iteration — the very bug class the paper's min-ID requirement
// guards against.
func (n *Network[S]) expireNeighbors(nd *netNode[S]) {
	timeout := n.prm.TimeoutFactor * n.prm.TB
	var expired []graph.NodeID
	for j, info := range nd.nbrs {
		if n.now-info.lastHeard > timeout {
			expired = append(expired, j)
		}
	}
	sort.Slice(expired, func(a, b int) bool { return expired[a] < expired[b] })
	for _, j := range expired {
		if !nd.nbrs[j].heard {
			nd.unheard--
		}
		delete(nd.nbrs, j)
		n.stats.Expired++
		nd.state = core.RepairState(n.p, nd.id, nd.state, j)
	}
	if len(expired) > 0 {
		// Membership changed (and the repair may have rewritten the
		// state): re-evaluate at the next action.
		nd.nbrListOK = false
		nd.dirty = true
	}
}

// act evaluates the protocol rules against the node's neighbor table and
// consumes the current round of beacons. A clean node — whose last
// evaluation was a complete no-op and whose view has not changed since —
// skips the Move call: purity guarantees the same no-op result (see
// DESIGN.md, "Active-frontier scheduling"). Action and move counts,
// state sequences, and beacon traffic are identical either way.
func (n *Network[S]) act(nd *netNode[S]) {
	n.actions++
	if n.fullScan {
		nd.dirty = true
	}
	if nd.dirty {
		if !nd.nbrListOK {
			nd.nbrList = nd.nbrList[:0]
			for j := range nd.nbrs {
				nd.nbrList = append(nd.nbrList, j)
			}
			sort.Slice(nd.nbrList, func(a, b int) bool { return nd.nbrList[a] < nd.nbrList[b] })
			nd.nbrListOK = true
		}
		v := core.View[S]{
			ID:   nd.id,
			Self: nd.state,
			Nbrs: nd.nbrList,
			Peer: nd.peerFn,
		}
		next, active := n.p.Move(v)
		// Stay dirty after a move or any state change (wrappers may edit
		// aux fields while inactive): the new Self needs one more look.
		nd.dirty = active || next != nd.state
		nd.state = next
		if active {
			n.moves++
			n.lastActivity = n.now
		}
	}
	for _, info := range nd.nbrs {
		if info.heard {
			info.heard = false
			nd.unheard++
		}
	}
}
