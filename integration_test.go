package selfstab

import (
	"context"
	"math/rand"
	"testing"

	"selfstab/internal/core"
)

// TestIntegrationMobileBeaconSMM is the paper's deployment scenario end
// to end: hosts move by random waypoint, the discrete-event beacon link
// layer carries the protocol, and the maximal matching is verified after
// every mobility epoch.
func TestIntegrationMobileBeaconSMM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	way := NewWaypoint(20, 0.25, 0.03, rng)
	g := way.Graph().Clone()

	prm := DefaultBeaconParams()
	prm.Jitter = 0.15
	prm.Loss = 0.05

	states := NewSMMConfig(g).States
	net := NewBeaconNetwork[Pointer](NewSMM(), g, states, prm, rng)
	if res := net.Run(1000, 6); !res.Stable {
		t.Fatalf("initial: %v", res)
	}

	for epoch := 0; epoch < 8; epoch++ {
		events := way.Step()
		if !IsConnected(way.Graph()) {
			continue // the paper assumes coordinated movement keeps connectivity
		}
		for _, ev := range events {
			if ev.Add {
				net.AddLink(ev.Edge.U, ev.Edge.V)
			} else {
				net.RemoveLink(ev.Edge.U, ev.Edge.V)
			}
		}
		if res := net.Run(net.Now()+2000, 8); !res.Stable {
			t.Fatalf("epoch %d: %v", epoch, res)
		}
		if err := IsMaximalMatching(g, MatchingOf(net.Config())); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	st := net.LinkStats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("no beacon traffic: %+v", st)
	}
}

// TestIntegrationConcurrentChurnSMI drives SMI through repeated churn
// epochs, verifying the MIS each time. Links flip through SetLink and
// each epoch resumes with ConvergeCtx, which evaluates only what the
// flips marked (DirtyEdge) — the path the service takes for a link
// mutation.
func TestIntegrationConcurrentChurnSMI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomConnected(25, 0.12, rng)
	net := NewFaultLockstep[bool](NewSMI(), NewSMIConfig(g))
	defer net.Close()

	for epoch := 0; epoch < 10; epoch++ {
		res, err := net.Lockstep().ConvergeCtx(context.Background(), g.N()+2)
		if err != nil || !res.Stable {
			t.Fatalf("epoch %d: %v (err %v)", epoch, res, err)
		}
		mis := SetOf(net.Config())
		if err := IsMaximalIndependentSet(g, mis); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err := IsMinimalDominatingSet(g, mis); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		churnLinks(net, g, rng, 3)
	}
}

// churnLinks draws k connectivity-preserving link events and replays
// them through SetLink. Churn edits the graph it is given, so it draws
// on a copy: run on g itself, every flip would already be made and
// SetLink would neither repair nor mark anything.
func churnLinks[S comparable](net *FaultLockstep[S], g *Graph, rng *rand.Rand, k int) {
	for _, ev := range NewChurn(g.Clone(), rng).Apply(k) {
		net.SetLink(ev.Edge, ev.Add)
	}
}

// TestIntegrationSpanningTreeUnderBeacons runs the multicast-tree
// extension on the asynchronous beacon layer with link churn.
func TestIntegrationSpanningTreeUnderBeacons(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(15, 0.2, rng)
	p := NewSpanningTree(g.N())
	states := make([]TreeState, g.N())
	srng := rand.New(rand.NewSource(7))
	for v := range states {
		states[v] = p.Random(NodeID(v), g.Neighbors(NodeID(v)), srng)
	}
	net := NewBeaconNetwork[TreeState](p, g, states, DefaultBeaconParams(), rng)
	if res := net.Run(5000, 8); !res.Stable {
		t.Fatalf("initial: %v", res)
	}
	if err := VerifyTree(g, net.Config().States); err != nil {
		t.Fatal(err)
	}
	// Drop a non-cut tree edge: the subtree must re-attach.
	for _, e := range TreeEdges(net.Config().States) {
		g2 := g.Clone()
		g2.RemoveEdge(e.U, e.V)
		if IsConnected(g2) {
			net.RemoveLink(e.U, e.V)
			break
		}
	}
	if res := net.Run(net.Now()+5000, 10); !res.Stable {
		t.Fatalf("after tree-edge failure: %v", res)
	}
	if err := VerifyTree(g, net.Config().States); err != nil {
		t.Fatal(err)
	}
}

// TestSoakMobilityEpochs is the endurance run: 200 churn epochs of SMM
// through SetLink and ConvergeCtx, with verification after every epoch.
// Skipped under -short.
func TestSoakMobilityEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	g := RandomConnected(40, 0.08, rng)
	p := NewSMM()
	states := make([]Pointer, g.N())
	srng := rand.New(rand.NewSource(1))
	for v := range states {
		states[v] = p.Random(NodeID(v), g.Neighbors(NodeID(v)), srng)
	}
	net := NewFaultLockstep[Pointer](p, Config[Pointer]{G: g, States: states})
	defer net.Close()
	for epoch := 0; epoch < 200; epoch++ {
		res, err := net.Lockstep().ConvergeCtx(context.Background(), g.N()+2)
		if err != nil || !res.Stable {
			t.Fatalf("epoch %d: %v (err %v)", epoch, res, err)
		}
		if err := IsMaximalMatching(g, MatchingOf(net.Config())); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		churnLinks(net, g, rng, 1+rng.Intn(4))
	}
}

// TestSoakBeaconLongRun drives the event-driven link layer through a
// long mobile scenario with loss. Skipped under -short.
func TestSoakBeaconLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	way := NewWaypoint(25, 0.22, 0.02, rng)
	g := way.Graph().Clone()
	prm := DefaultBeaconParams()
	prm.Loss = 0.08
	prm.Jitter = 0.25
	states := make([]bool, g.N())
	net := NewBeaconNetwork[bool](NewSMI(), g, states, prm, rng)
	for epoch := 0; epoch < 40; epoch++ {
		if res := net.Run(net.Now()+4000, 8); !res.Stable {
			t.Fatalf("epoch %d: %v", epoch, res)
		}
		if err := IsMaximalIndependentSet(g, SetOf(net.Config())); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		events := way.Step()
		if !IsConnected(way.Graph()) {
			continue
		}
		for _, ev := range events {
			if ev.Add {
				net.AddLink(ev.Edge.U, ev.Edge.V)
			} else {
				net.RemoveLink(ev.Edge.U, ev.Edge.V)
			}
		}
	}
	st := net.LinkStats()
	if st.Lost == 0 {
		t.Fatal("loss process never fired in a 8% loss soak")
	}
}

// TestIntegrationExhaustiveFacade drives the model checker through the
// facade on a small instance.
func TestIntegrationExhaustiveFacade(t *testing.T) {
	g := Cycle(5)
	rep, err := ExploreAll[Pointer](NewSMM(), g, SMMDomain, 1<<16, func(states []Pointer) error {
		cfg := Config[Pointer]{G: g, States: states}
		return IsMaximalMatching(g, MatchingOf(cfg))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent != 0 || rep.MaxRounds > g.N()+1 {
		t.Fatalf("report: %v", rep)
	}
	_ = core.Null // keep the internal import honest: facade and core interoperate
}
