package selfstab_test

import (
	"fmt"
	"math/rand"
	"os"

	"selfstab"
)

// ExampleRunSMM runs Algorithm SMM on a path and prints the verified
// maximal matching.
func ExampleRunSMM() {
	g := selfstab.Path(6)
	res, matching := selfstab.RunSMM(g, 1)
	fmt.Println("stable:", res.Stable, "within bound:", res.Rounds <= g.N()+1)
	fmt.Println("matching valid:", selfstab.IsMaximalMatching(g, matching) == nil)
	fmt.Println("pairs:", len(matching))
	// Output:
	// stable: true within bound: true
	// matching valid: true
	// pairs: 3
}

// ExampleRunSMI runs Algorithm SMI on a star: the center is dominated by
// any leaf, and the leaves are mutually non-adjacent, so the MIS is all
// leaves.
func ExampleRunSMI() {
	g := selfstab.Star(5) // center 0, leaves 1..4
	res, mis := selfstab.RunSMI(g, 1)
	fmt.Println("stable:", res.Stable)
	fmt.Println("set:", mis)
	// Output:
	// stable: true
	// set: [1 2 3 4]
}

// ExampleNewSMMArbitrary reproduces the paper's Section 3 counterexample:
// on a four-cycle with all pointers null, proposing to the clockwise
// neighbor instead of the minimum-ID one oscillates forever.
func ExampleNewSMMArbitrary() {
	g := selfstab.Cycle(4)
	cfg := selfstab.NewSMMConfig(g) // all pointers Λ
	l := selfstab.NewLockstep[selfstab.Pointer](selfstab.NewSMMArbitrary(), cfg)
	res := l.Run(1000)
	fmt.Println("stable:", res.Stable, "after", res.Rounds, "rounds")

	// The published rule stabilizes from the very same state.
	cfg2 := selfstab.NewSMMConfig(g)
	l2 := selfstab.NewLockstep[selfstab.Pointer](selfstab.NewSMM(), cfg2)
	res2 := l2.Run(g.N() + 1)
	fmt.Println("min-id stable:", res2.Stable, "pairs:", len(selfstab.MatchingOf(cfg2)))
	// Output:
	// stable: false after 1000 rounds
	// min-id stable: true pairs: 2
}

// ExampleClassifySMM shows the paper's Figure 2 node-type census on a
// hand-built configuration exhibiting a matched pair, a pointing node,
// and an aloof node.
func ExampleClassifySMM() {
	g := selfstab.Path(4)
	cfg := selfstab.NewSMMConfig(g)
	cfg.States[0] = selfstab.PointAt(1) // 0 ↔ 1 matched
	cfg.States[1] = selfstab.PointAt(0)
	cfg.States[2] = selfstab.PointAt(1) // 2 → matched node: PM
	// 3 stays Λ with nobody pointing at it: A°
	fmt.Println(selfstab.CensusOf(selfstab.ClassifySMM(cfg)))
	// Output:
	// M=2 A°=1 A'=0 PA=0 PM=1 PP=0
}

// ExampleNewBeaconNetwork runs SMM under the discrete-event beacon link
// layer — timers, delays, neighbor discovery — and verifies the result.
func ExampleNewBeaconNetwork() {
	rng := rand.New(rand.NewSource(1))
	g := selfstab.Cycle(6)
	states := selfstab.NewSMMConfig(g).States
	net := selfstab.NewBeaconNetwork[selfstab.Pointer](selfstab.NewSMM(), g, states, selfstab.DefaultBeaconParams(), rng)
	res := net.Run(200, 5)
	fmt.Println("stable:", res.Stable)
	fmt.Println("maximal:", selfstab.IsMaximalMatching(g, selfstab.MatchingOf(net.Config())) == nil)
	// Output:
	// stable: true
	// maximal: true
}

// ExampleNewFaultLockstep runs SMI, fails a link between rounds, and
// lets the same executor re-stabilize.
func ExampleNewFaultLockstep() {
	g := selfstab.Grid(3, 3)
	net := selfstab.NewFaultLockstep[bool](selfstab.NewSMI(), selfstab.NewSMIConfig(g))
	defer net.Close()
	net.Lockstep().Run(g.N() + 1)
	net.SetLink(selfstab.NewEdge(0, 1), false)
	res := net.Lockstep().Run(g.N() + 1)
	mis := selfstab.SetOf(net.Config())
	fmt.Println("stable:", res.Stable)
	fmt.Println("independent & dominating:", selfstab.IsMaximalIndependentSet(g, mis) == nil)
	// Output:
	// stable: true
	// independent & dominating: true
}

// ExampleWriteDOT renders a matching as Graphviz DOT.
func ExampleWriteDOT() {
	g := selfstab.Path(3)
	_, matching := selfstab.RunSMM(g, 1)
	highlight := map[selfstab.Edge]bool{}
	for _, e := range matching {
		highlight[e] = true
	}
	selfstab.WriteDOT(os.Stdout, g, selfstab.DOTOptions{Name: "M", Highlight: highlight})
	// Output:
	// graph M {
	//   0;
	//   1;
	//   2;
	//   0 -- 1 [style=bold, penwidth=2];
	//   1 -- 2;
	// }
}

// ExampleNewChurn applies connectivity-preserving topology changes and
// lets SMM re-stabilize — the paper's fault-tolerance scenario.
func ExampleNewChurn() {
	rng := rand.New(rand.NewSource(3))
	g := selfstab.Cycle(8)
	cfg := selfstab.NewSMMConfig(g)
	l := selfstab.NewLockstep[selfstab.Pointer](selfstab.NewSMM(), cfg)
	l.Run(g.N() + 1)

	selfstab.NewChurn(g, rng).Apply(3) // 3 link events, graph stays connected
	selfstab.NormalizeSMM(cfg)         // drop dangling pointers (link layer repair)
	res := l.Run(g.N() + 1)
	fmt.Println("re-stabilized:", res.Stable)
	fmt.Println("still maximal:", selfstab.IsMaximalMatching(g, selfstab.MatchingOf(cfg)) == nil)
	fmt.Println("still connected:", selfstab.IsConnected(g))
	// Output:
	// re-stabilized: true
	// still maximal: true
	// still connected: true
}
