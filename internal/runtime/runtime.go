// Package runtime executes a protocol with one goroutine per network
// node and Go channels as the logical links — the "nodes are processes,
// beacons are messages" reading of the paper's system model. Rounds are
// bulk-synchronous: in each round every node goroutine broadcasts its
// state to the inboxes of its neighbors that will evaluate this round
// (the beacons), waits for the barrier, drains exactly one beacon per
// neighbor, evaluates its rules, and reports the move to the
// coordinator, which commits all new states at once. The semantics
// therefore coincide with sim.Lockstep (verified by the equivalence
// tests) while the execution is genuinely concurrent.
//
// The coordinator schedules rounds with the same active frontier as
// sim.Lockstep: a node whose last evaluation was a no-op and whose view
// has not changed since is published as clean, skips the gather and
// Move phases, and receives no beacons (none of its neighbors would be
// heard by anyone). Purity of Move makes the skip exact — every state
// sequence and move count matches the full scan (see DESIGN.md,
// "Active-frontier scheduling").
//
// Topology changes are applied by the coordinator between rounds, which
// models the link layer updating the neighbor lists before the next
// beacon exchange; states referencing a departed neighbor are repaired
// through core.NeighborAware.
package runtime

import (
	"fmt"
	"sort"
	"sync"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/mobility"
)

// beaconMsg is one beacon: the sender and the state it carried.
type beaconMsg[S comparable] struct {
	from  graph.NodeID
	state S
}

// roundCmd tells a node goroutine to run one round (or stop).
type roundCmd uint8

const (
	cmdRound roundCmd = iota
	cmdStop
)

// moveReport is a node's per-round result.
type moveReport[S comparable] struct {
	id     graph.NodeID
	next   S
	active bool
}

// Network runs one protocol over a mutable topology with one goroutine
// per node. Create with New, drive with Step/Run, always Close.
type Network[S comparable] struct {
	p      core.Protocol[S]
	g      *graph.Graph
	states []S

	inboxes []chan beaconMsg[S]
	cmds    []chan roundCmd
	reports chan moveReport[S]
	sent    *sync.WaitGroup // beacons of the current round all sent

	// Round snapshot handed to node goroutines: the adjacency (a CSR,
	// re-taken when the topology's version moves away from topo, the
	// version the frontier reflects), the pre-round states, and the
	// round's dirty set. All are written by the coordinator strictly
	// before the cmdRound sends and read by node goroutines strictly
	// after the receives, so the channel handshake orders every write —
	// an in-place Snapshot patch included — before every read.
	roundCSR    *graph.CSR
	roundStates []S
	dirty       []bool
	topo        uint64

	frontier *graph.Frontier
	dirtyBuf []graph.NodeID // drained frontier of the current round
	fullScan bool           // reference mode: every node every round

	// peerFilter, when non-nil, intercepts every neighbor-state read with
	// (viewer, neighbor, fresh state); the fault layer uses it to serve
	// stale views. Published under the same handshake as the snapshot.
	peerFilter func(viewer, nbr graph.NodeID, fresh S) S

	rounds int
	moves  int
	closed bool
}

// New starts one goroutine per node of g with the given initial states
// (used in place). Callers must Close the network when done.
func New[S comparable](p core.Protocol[S], g *graph.Graph, states []S) *Network[S] {
	n := g.N()
	if len(states) != n {
		panic(fmt.Sprintf("runtime: %d states for %d nodes", len(states), n))
	}
	net := &Network[S]{
		p:           p,
		g:           g,
		states:      states,
		inboxes:     make([]chan beaconMsg[S], n),
		cmds:        make([]chan roundCmd, n),
		reports:     make(chan moveReport[S], n),
		sent:        &sync.WaitGroup{},
		roundStates: make([]S, n),
		dirty:       make([]bool, n),
		frontier:    graph.NewFrontier(n),
		fullScan:    referenceScan.Load(),
	}
	net.resync()
	for v := 0; v < n; v++ {
		net.inboxes[v] = make(chan beaconMsg[S], n) // capacity ≥ max degree
		net.cmds[v] = make(chan roundCmd)
	}
	for v := 0; v < n; v++ {
		go net.nodeLoop(graph.NodeID(v))
	}
	return net
}

// nodeLoop is the per-node process: beacon, gather, move, report. The
// gather buffer and the peer closures live across rounds, so steady
// state allocates nothing per round.
func (net *Network[S]) nodeLoop(id graph.NodeID) {
	var (
		nbrs  []graph.NodeID
		heard []S
	)
	// lookup resolves a neighbor's beacon by binary search over the
	// sorted neighbor list — replacing the per-round map.
	lookup := func(j graph.NodeID) S {
		i := sort.Search(len(nbrs), func(k int) bool { return nbrs[k] >= j })
		return heard[i]
	}
	filtered := func(j graph.NodeID) S { return net.peerFilter(id, j, lookup(j)) }
	for cmd := range net.cmds[id] {
		if cmd == cmdStop {
			return
		}
		nbrs = net.roundCSR.Neighbors(id)
		self := net.roundStates[id]
		// Beacon phase: broadcast our state to every neighbor that will
		// evaluate this round. Clean neighbors consume no beacons.
		for _, j := range nbrs {
			if net.dirty[j] {
				net.inboxes[j] <- beaconMsg[S]{from: id, state: self}
			}
		}
		net.sent.Done()
		net.sent.Wait() // barrier: all beacons of this round are in flight
		if !net.dirty[id] {
			// Clean: our last evaluation was a no-op and our view is
			// unchanged, so Move would return (self, false) again.
			net.reports <- moveReport[S]{id: id, next: self, active: false}
			continue
		}
		// Gather phase: exactly one beacon per neighbor (every neighbor
		// sent to us — we are dirty).
		if cap(heard) < len(nbrs) {
			heard = make([]S, len(nbrs))
		}
		heard = heard[:len(nbrs)]
		for range nbrs {
			m := <-net.inboxes[id]
			i := sort.Search(len(nbrs), func(k int) bool { return nbrs[k] >= m.from })
			heard[i] = m.state
		}
		peer := lookup
		if net.peerFilter != nil {
			peer = filtered
		}
		next, active := net.p.Move(core.View[S]{
			ID:   id,
			Self: self,
			Nbrs: nbrs,
			Peer: peer,
		})
		net.reports <- moveReport[S]{id: id, next: next, active: active}
	}
}

// DirtyState marks node v's closed neighborhood for re-evaluation after
// an external write to its state between rounds.
func (net *Network[S]) DirtyState(v graph.NodeID) {
	net.frontier.Add(v)
	for _, w := range net.g.Neighbors(v) {
		net.frontier.Add(w)
	}
}

// DirtyView marks node v alone for re-evaluation: its effective view
// changed without any state changing (a stale-read pin installed or
// expired).
func (net *Network[S]) DirtyView(v graph.NodeID) {
	net.frontier.Add(v)
}

// DirtyEdge re-syncs the adjacency snapshot after a hooked topology
// mutation on edge {u,v} and re-dirties the affected closed
// neighborhoods, or everyone when an earlier edit went unreported (see
// sim.Lockstep.DirtyEdge).
func (net *Network[S]) DirtyEdge(u, v graph.NodeID) {
	missed := net.g.Version()-net.topo > 1
	net.resync()
	if missed {
		net.frontier.AddAll()
		return
	}
	for _, x := range [2]graph.NodeID{u, v} {
		net.frontier.Add(x)
		for _, w := range net.roundCSR.Neighbors(x) {
			net.frontier.Add(w)
		}
	}
}

// resync adopts the graph's current snapshot and records its version.
func (net *Network[S]) resync() {
	net.roundCSR, net.topo = net.g.Snapshot(), net.g.Version()
}

// Step runs one synchronous round and returns the number of active
// nodes.
func (net *Network[S]) Step() int {
	if net.closed {
		panic("runtime: Step after Close")
	}
	if net.g.Version() != net.topo {
		// Unhooked topology change (ApplyEvents, a test editing the
		// graph): re-snapshot and re-evaluate everyone.
		net.resync()
		net.frontier.AddAll()
	}
	if net.fullScan {
		net.frontier.AddAll()
	}
	n := net.g.N()
	// Publish the round snapshot: reset the previous round's dirty bits
	// (O(frontier), not O(n)), then raise this round's.
	for _, v := range net.dirtyBuf {
		net.dirty[v] = false
	}
	ids := net.frontier.Drain(net.dirtyBuf, n)
	net.dirtyBuf = ids
	for _, v := range ids {
		net.dirty[v] = true
	}
	copy(net.roundStates, net.states)
	net.sent.Add(n)
	for v := 0; v < n; v++ {
		net.cmds[v] <- cmdRound
	}
	active := 0
	for i := 0; i < n; i++ {
		// Reports arrive in goroutine-scheduling order, but the frontier
		// deduplicates through a bitset and drains sorted, so the next
		// round is independent of arrival order.
		rep := <-net.reports
		if rep.active {
			active++
			net.frontier.Add(rep.id)
		}
		if rep.next != net.states[rep.id] {
			net.states[rep.id] = rep.next
			net.frontier.Add(rep.id)
			for _, w := range net.roundCSR.Neighbors(rep.id) {
				net.frontier.Add(w)
			}
		}
	}
	if active > 0 {
		net.rounds++
		net.moves += active
	}
	return active
}

// Run drives Step until a quiet round or until maxRounds active rounds.
// The result mirrors sim.Result.
func (net *Network[S]) Run(maxRounds int) (rounds, moves int, stable bool) {
	// Run is the boundary at which callers may have edited states
	// directly; re-dirty everything (see sim.Lockstep.RunHook).
	net.frontier.AddAll()
	start := net.rounds
	for net.rounds-start < maxRounds {
		if net.Step() == 0 {
			return net.rounds - start, net.moves, true
		}
	}
	return net.rounds - start, net.moves, false
}

// Config snapshots the current configuration.
func (net *Network[S]) Config() core.Config[S] {
	cfg := core.NewConfig[S](net.g)
	copy(cfg.States, net.states)
	return cfg
}

// Rounds returns the number of active rounds executed.
func (net *Network[S]) Rounds() int { return net.rounds }

// Moves returns the total number of active node evaluations.
func (net *Network[S]) Moves() int { return net.moves }

// ApplyEvents mutates the topology between rounds (the link layer
// reporting created/destroyed links) and repairs states that referenced
// departed neighbors. The version bump makes the next Step re-snapshot
// the adjacency and re-evaluate everyone.
func (net *Network[S]) ApplyEvents(events []mobility.Event) {
	for _, ev := range events {
		if ev.Add {
			net.g.AddEdge(ev.Edge.U, ev.Edge.V)
			continue
		}
		net.g.RemoveEdge(ev.Edge.U, ev.Edge.V)
		for _, v := range [2]graph.NodeID{ev.Edge.U, ev.Edge.V} {
			other := ev.Edge.U ^ ev.Edge.V ^ v
			net.states[v] = core.RepairState(net.p, v, net.states[v], other)
		}
	}
}

// Close stops all node goroutines. The network is unusable afterwards.
func (net *Network[S]) Close() {
	if net.closed {
		return
	}
	net.closed = true
	for _, c := range net.cmds {
		c <- cmdStop
		close(c)
	}
}
