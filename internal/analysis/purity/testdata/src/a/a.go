// Fixture for the purity analyzer: protocol-shaped functions (Move
// methods taking a View, their companions, and func literals taking a
// View) checked for mutation, I/O, and retention, plus the pure shapes
// the real protocols rely on that must stay diagnostic-free.
package a

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
)

type NodeID int

type State struct {
	Level int
	Up    bool
}

// View mirrors core.View: the node's local neighborhood snapshot.
type View struct {
	ID   NodeID
	Self State
	Nbrs []NodeID
	Peer func(NodeID) State
}

// ---------------------------------------------------------------------
// Pure shapes: none of these may produce diagnostics.

type Good struct {
	rngs    []*rand.Rand
	firings atomic.Int64
}

func (g *Good) Move(v View) (State, bool) {
	next := v.Self // value copy: mutating it is private
	next.Level = 0
	for _, j := range v.Nbrs {
		p := v.Peer(j) // indirect call through the View: allowed
		if p.Level > next.Level {
			next.Level = p.Level
		}
	}
	g.firings.Add(1)               // sync/atomic: sanctioned counter
	if g.rngs[v.ID].Intn(2) == 1 { // per-node threaded rng: sanctioned
		next.Up = !next.Up
	}
	cands := make([]NodeID, 0, len(v.Nbrs))
	cands = append(cands, v.Nbrs...) // reads the View, writes a local
	sort.Slice(cands, func(i, k int) bool { return cands[i] < cands[k] })
	return next, next.Level != v.Self.Level
}

func (g *Good) Random(id NodeID, nbrs []NodeID, rng *rand.Rand) State {
	return State{Level: rng.Intn(3), Up: rng.Intn(2) == 1} // mutating the rng param is the point
}

func (g *Good) OnNeighborLost(self NodeID, s State, lost NodeID) State {
	s.Level = 0 // value parameter: a private copy
	return s
}

// ---------------------------------------------------------------------
// Receiver mutation.

type BadRecv struct {
	count int
	cache map[NodeID]State
	kept  []NodeID
}

func (b *BadRecv) Move(v View) (State, bool) {
	b.count++              // want `mutates receiver state|writes receiver state`
	b.cache[v.ID] = v.Self // want `writes receiver state`
	b.kept = v.Nbrs        // want `writes receiver state` `retaining it past the call`
	return v.Self, false
}

// ---------------------------------------------------------------------
// View mutation, direct and via helpers.

type BadView struct{}

func (BadView) Move(v View) (State, bool) {
	v.Nbrs[0] = 0                                                            // want `writes the View`
	sort.Slice(v.Nbrs, func(i, k int) bool { return v.Nbrs[i] < v.Nbrs[k] }) // want `passes the View to sort.Slice, which mutates its argument`
	nbrs := v.Nbrs                                                           // taint flows through the local alias
	nbrs[0] = 1                                                              // want `writes the View`
	return v.Self, false
}

// ---------------------------------------------------------------------
// Globals and I/O.

var hits int

type BadGlobal struct{}

func (BadGlobal) Move(v View) (State, bool) {
	hits++            // want `writes package-level state`
	fmt.Println(v.ID) // want `calls fmt.Println, which performs I/O`
	return v.Self, false
}

// ---------------------------------------------------------------------
// Channels and goroutines.

type BadChan struct {
	updates chan State
}

func (b *BadChan) Move(v View) (State, bool) {
	b.updates <- v.Self      // want `sends on a channel`
	go func() { hits = 1 }() // want `starts a goroutine` `writes package-level state`
	return v.Self, false
}

// ---------------------------------------------------------------------
// Interprocedural: impurity in a helper surfaces at the Move call site.

type BadHelper struct {
	n int
}

func (b *BadHelper) bump() { b.n++ }

func logged(s State) State {
	fmt.Println(s)
	return s
}

func (b *BadHelper) Move(v View) (State, bool) {
	b.bump()                     // want `calls BadHelper.bump, which mutates state reachable from receiver state`
	return logged(v.Self), false // want `calls logged, which performs I/O`
}

// A pure helper stays silent even across several hops.
func depth1(s State) State { return depth2(s) }
func depth2(s State) State { s.Level++; return s }

type GoodHelper struct{}

func (GoodHelper) Move(v View) (State, bool) {
	return depth1(v.Self), false
}

// ---------------------------------------------------------------------
// Rule-table closures: func literals taking a View are targets too.

type Rule struct {
	Name   string
	Guard  func(View) bool
	Action func(View) State
}

var rules = []Rule{
	{
		Name:  "ok",
		Guard: func(v View) bool { return v.Self.Up },
		Action: func(v View) State {
			next := v.Self
			next.Up = false
			return next
		},
	},
	{
		Name:  "dirty",
		Guard: func(v View) bool { hits++; return true }, // want `writes package-level state`
		Action: func(v View) State {
			v.Nbrs[0] = 9 // want `writes the View`
			return v.Self
		},
	},
}

// ---------------------------------------------------------------------
// Suppression: an impure Move excused with an explicit reason.

type Counted struct {
	calls int
}

func (c *Counted) Move(v View) (State, bool) {
	//lint:ignore purity instrumentation counter audited as benign
	c.calls++
	return v.Self, false
}
