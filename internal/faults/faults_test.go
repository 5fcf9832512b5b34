package faults_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"selfstab/internal/beacon"
	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
)

// pathGraph returns the path 0-1-...-(n-1).
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return g
}

// cycleGraph returns the cycle on n nodes.
func cycleGraph(n int) *graph.Graph {
	g := pathGraph(n)
	g.AddEdge(0, graph.NodeID(n-1))
	return g
}

// legitPathSMM returns a legitimate SMM configuration on the 8-path:
// matched pairs (1,2), (3,4), (5,6); 0 and 7 unmatched but saturated.
func legitPathSMM() []core.Pointer {
	return []core.Pointer{
		core.Null, core.PointAt(2), core.PointAt(1),
		core.PointAt(4), core.PointAt(3),
		core.PointAt(6), core.PointAt(5), core.Null,
	}
}

func TestGenerateDeterministicAndSorted(t *testing.T) {
	g := cycleGraph(10)
	a := faults.Generate(7, g, faults.GenParams{Events: 12})
	b := faults.Generate(7, g, faults.GenParams{Events: 12})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n--\n%v", a, b)
	}
	if len(a.Events) < 12 {
		t.Fatalf("got %d events, want >= 12", len(a.Events))
	}
	open := 0
	for i, ev := range a.Events {
		if i > 0 && ev.Round < a.Events[i-1].Round {
			t.Fatalf("events not sorted by round: %v", a.Events)
		}
		switch ev.Kind {
		case faults.Partition:
			open++
		case faults.Heal:
			if open == 0 {
				t.Fatalf("heal without open partition at index %d", i)
			}
			open--
		}
	}
	if open != 0 {
		t.Fatalf("%d partitions left unhealed", open)
	}
	if c := faults.Generate(8, g, faults.GenParams{Events: 12}); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := faults.Generate(3, cycleGraph(6), faults.GenParams{Events: 8})
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got faults.Schedule
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%v\n--\n%v", s, got)
	}
}

func TestOverlayPinTickUnpin(t *testing.T) {
	ov := faults.NewOverlay[int]()
	if !ov.Empty() {
		t.Fatal("new overlay not empty")
	}
	ov.PinLink(0, 1, 10, 20, 2)
	if got := ov.Peer(0, 1, 99); got != 20 {
		t.Fatalf("0's view of 1 = %d, want pinned 20", got)
	}
	if got := ov.Peer(1, 0, 99); got != 10 {
		t.Fatalf("1's view of 0 = %d, want pinned 10", got)
	}
	if got := ov.Peer(0, 2, 99); got != 99 {
		t.Fatalf("unpinned read = %d, want fresh 99", got)
	}
	// Re-pinning keeps the stalest state and the longer lifetime.
	ov.PinLink(0, 1, 11, 21, 1)
	if got := ov.Peer(0, 1, 99); got != 20 {
		t.Fatalf("re-pin overwrote stale state: got %d, want 20", got)
	}
	ov.Tick()
	if ov.Empty() {
		t.Fatal("pins expired one round early")
	}
	ov.Tick()
	if !ov.Empty() {
		t.Fatal("pins survived their lifetime")
	}
	ov.PinView(3, []graph.NodeID{4, 5}, func(j graph.NodeID) int { return int(j) * 100 }, 3)
	if got := ov.Peer(3, 5, 1); got != 500 {
		t.Fatalf("frozen view read = %d, want 500", got)
	}
	ov.Unpin(3, 5)
	if got := ov.Peer(3, 5, 1); got != 1 {
		t.Fatalf("unpinned read = %d, want fresh 1", got)
	}
}

// TestZeroFaultClosure is the acceptance check for closure: a campaign
// with no faults, started in a legitimate configuration, must report
// zero closure violations and a clean Init epoch on every model.
func TestZeroFaultClosure(t *testing.T) {
	sched := faults.Schedule{Seed: 1}
	for _, tc := range modelTargets(t, 1, legitPathSMM()) {
		rep := faults.RunSchedule[core.Pointer](core.NewSMM(), tc.target, sched, faults.SMM)
		tc.target.Close()
		if rep.Failed() {
			t.Errorf("%s: %v", tc.name, rep.Failures)
		}
		if rep.ClosureViolations != 0 {
			t.Errorf("%s: %d closure violations from a legitimate fixed point", tc.name, rep.ClosureViolations)
		}
		if len(rep.Epochs) != 1 || rep.Epochs[0].Kind != faults.Init {
			t.Errorf("%s: epochs = %+v, want exactly the Init epoch", tc.name, rep.Epochs)
		}
		if !rep.Epochs[0].Legitimate {
			t.Errorf("%s: Init epoch not legitimate: %s", tc.name, rep.Epochs[0].CheckErr)
		}
	}
}

type modelTarget struct {
	name   string
	target faults.Target[core.Pointer]
}

// modelTargets builds the targets of both execution models over the
// path on len(states) nodes, each with its own copy of the given
// initial states: lockstep on the frontier engine and on the full-scan
// reference, and beacon.
func modelTargets(t *testing.T, seed int64, states []core.Pointer) []modelTarget {
	t.Helper()
	mk := func() []core.Pointer { return append([]core.Pointer(nil), states...) }
	cfg := func() core.Config[core.Pointer] {
		return core.Config[core.Pointer]{G: pathGraph(len(states)), States: mk()}
	}
	lock := sim.NewFaultLockstep[core.Pointer](core.NewSMM(), cfg())
	ref := sim.NewReferenceFaultLockstep[core.Pointer](core.NewSMM(), cfg())
	bcn := beacon.NewFaultNetwork[core.Pointer](core.NewSMM(), pathGraph(len(states)), mk(),
		beacon.DefaultParams(), rand.New(rand.NewSource(seed)))
	return []modelTarget{{"lockstep", lock}, {"reference", ref}, {"beacon", bcn}}
}

// TestRecoveryAllModels is the acceptance check for cross-model replay:
// one generated schedule covering every fault kind replays on lockstep
// (frontier and full-scan reference) and on beacon, and the recovery
// monitor confirms every epoch — in particular every SMM epoch —
// re-converges within the paper's bound (faults.SMM's n+1 rounds plus
// the model's detection lag and the fault's own duration).
func TestRecoveryAllModels(t *testing.T) {
	const n = 8
	states := make([]core.Pointer, n)
	rng := rand.New(rand.NewSource(11))
	g := pathGraph(n)
	p := core.NewSMM()
	for v := range states {
		states[v] = p.Random(graph.NodeID(v), g.Neighbors(graph.NodeID(v)), rng)
	}
	sched := faults.Generate(5, g, faults.GenParams{Events: 6, Start: n + 2, Gap: 3 * n})
	var reports []faults.Report
	for _, tc := range modelTargets(t, 2, states) {
		rep := faults.RunSchedule[core.Pointer](core.NewSMM(), tc.target, sched, faults.SMM)
		tc.target.Close()
		if rep.Failed() {
			t.Errorf("%s: %v", tc.name, rep.Failures)
		}
		for _, ep := range rep.Epochs {
			if ep.Converged && !ep.WithinBound {
				t.Errorf("%s: epoch %d (%s) took %d rounds, bound %d", tc.name, ep.Index, ep.Desc, ep.Rounds, ep.Bound)
			}
		}
		reports = append(reports, rep)
	}
	// Frontier scheduling is never observable: the frontier engine and
	// the full scan must produce identical epoch accounts.
	if !reflect.DeepEqual(reports[0].Epochs, reports[1].Epochs) {
		t.Errorf("frontier and reference lockstep epoch reports diverge:\n%+v\n--\n%+v", reports[0].Epochs, reports[1].Epochs)
	}
	// The beacon model shares the logical schedule: same epochs, same
	// kinds, in the same order.
	if len(reports[2].Epochs) != len(reports[0].Epochs) {
		t.Fatalf("beacon saw %d epochs, lockstep %d", len(reports[2].Epochs), len(reports[0].Epochs))
	}
	for i, ep := range reports[2].Epochs {
		if ep.Kind != reports[0].Epochs[i].Kind {
			t.Errorf("epoch %d: beacon kind %s, lockstep kind %s", i, ep.Kind, reports[0].Epochs[i].Kind)
		}
	}
}

// TestRunScheduleDeterministic pins that replaying the same schedule on
// a fresh target yields the identical report.
func TestRunScheduleDeterministic(t *testing.T) {
	const n = 8
	g := pathGraph(n)
	p := core.NewSMM()
	rng := rand.New(rand.NewSource(3))
	states := make([]core.Pointer, n)
	for v := range states {
		states[v] = p.Random(graph.NodeID(v), g.Neighbors(graph.NodeID(v)), rng)
	}
	sched := faults.Generate(9, g, faults.GenParams{Events: 5, Start: n + 2})
	runOnce := func() faults.Report {
		tgt := sim.NewFaultLockstep[core.Pointer](core.NewSMM(),
			core.Config[core.Pointer]{G: pathGraph(n), States: append([]core.Pointer(nil), states...)})
		defer tgt.Close()
		return faults.RunSchedule[core.Pointer](core.NewSMM(), tgt, sched, faults.SMM)
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\n--\n%+v", a, b)
	}
}

// noRepairSMM is SMM with its dangling-pointer self-repair removed and
// no NeighborAware hook: a node whose pointer target left the network
// keeps pointing at it forever and claims to be inactive. The fault
// engine must expose this as an illegitimate converged configuration
// whenever a fault cuts a matched edge.
type noRepairSMM struct{ smm *core.SMM }

func (b *noRepairSMM) Name() string { return "SMM-norepair" }

func (b *noRepairSMM) Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) core.Pointer {
	return b.smm.Random(id, nbrs, rng)
}

func (b *noRepairSMM) Move(v core.View[core.Pointer]) (core.Pointer, bool) {
	if !v.Self.IsNull() {
		present := false
		for _, j := range v.Nbrs {
			if j == v.Self.Node() {
				present = true
				break
			}
		}
		if !present {
			return v.Self, false // the bug: dangling pointer kept, claimed stable
		}
	}
	return b.smm.Move(v)
}

// TestShrinkBrokenProtocol is the acceptance check for shrinking: a
// seeded failing schedule against a deliberately broken protocol
// variant shrinks to a minimal repro that still fails on replay.
func TestShrinkBrokenProtocol(t *testing.T) {
	const n = 8
	failing := func(s faults.Schedule) faults.Report {
		tgt := sim.NewFaultLockstep[core.Pointer](&noRepairSMM{smm: core.NewSMM()},
			core.Config[core.Pointer]{G: pathGraph(n), States: legitPathSMM()})
		defer tgt.Close()
		return faults.RunSchedule[core.Pointer](&noRepairSMM{smm: core.NewSMM()}, tgt, s, faults.SMM)
	}
	// Benign noise around the trigger: the partition cuts matched edge
	// {1,2} (among others), which the broken protocol never repairs.
	sched := faults.Schedule{Seed: 1, Events: []faults.Event{
		{Round: 2, Kind: faults.Corrupt, Nodes: []graph.NodeID{0}},
		{Round: 14, Kind: faults.Stale, Nodes: []graph.NodeID{5}, Dur: 2},
		{Round: 26, Kind: faults.Partition, Nodes: []graph.NodeID{0, 1, 2, 3}},
		{Round: 40, Kind: faults.Drop, Links: []graph.Edge{graph.NewEdge(5, 6)}, Dur: 2},
	}}
	if rep := failing(sched); !rep.Failed() {
		t.Fatalf("seed schedule unexpectedly passes: %+v", rep)
	}
	min := faults.Shrink(sched, func(s faults.Schedule) bool { return failing(s).Failed() }, 0)
	if rep := failing(min); !rep.Failed() {
		t.Fatalf("shrunk schedule no longer fails: %v", min)
	}
	if len(min.Events) != 1 {
		t.Fatalf("shrunk to %d events, want 1: %v", len(min.Events), min)
	}
	ev := min.Events[0]
	if ev.Kind != faults.Partition {
		t.Fatalf("shrunk to %s, want the partition trigger: %v", ev.Kind, min)
	}
	if len(ev.Nodes) != 1 {
		t.Fatalf("partition side not minimized: %v", ev.Nodes)
	}
	// And the healthy protocol must survive the minimal repro.
	tgt := sim.NewFaultLockstep[core.Pointer](core.NewSMM(),
		core.Config[core.Pointer]{G: pathGraph(n), States: legitPathSMM()})
	defer tgt.Close()
	if rep := faults.RunSchedule[core.Pointer](core.NewSMM(), tgt, min, faults.SMM); rep.Failed() {
		t.Fatalf("healthy SMM fails the minimal repro: %v", rep.Failures)
	}
}

func TestShrinkSynthetic(t *testing.T) {
	sched := faults.Generate(2, cycleGraph(10), faults.GenParams{Events: 10})
	// Failure: any Drop with Dur >= 2 present.
	failing := func(s faults.Schedule) bool {
		for _, ev := range s.Events {
			if ev.Kind == faults.Drop && ev.Dur >= 2 {
				return true
			}
		}
		return false
	}
	if !failing(sched) {
		t.Skip("generated schedule lacks a qualifying drop; adjust seed")
	}
	min := faults.Shrink(sched, failing, 0)
	if len(min.Events) != 1 {
		t.Fatalf("shrunk to %d events, want 1: %v", len(min.Events), min)
	}
	ev := min.Events[0]
	if ev.Kind != faults.Drop || ev.Dur != 2 || len(ev.Links) != 1 {
		t.Fatalf("not minimal: %+v", ev)
	}
}

// scriptTarget is a fake Target whose per-round move counts follow a
// script, for exercising the monitor's closure accounting in isolation.
type scriptTarget struct {
	g      *graph.Graph
	states []bool
	moves  []int
	r      int
}

func (s *scriptTarget) Model() string                      { return "script" }
func (s *scriptTarget) Topology() *graph.Graph             { return s.g }
func (s *scriptTarget) Config() core.Config[bool]          { return core.Config[bool]{G: s.g, States: s.states} }
func (s *scriptTarget) WriteState(v graph.NodeID, b bool)  { s.states[v] = b }
func (s *scriptTarget) SetLink(e graph.Edge, present bool) {}
func (s *scriptTarget) DropLink(e graph.Edge, rounds int)  {}
func (s *scriptTarget) Freeze(v graph.NodeID, rounds int)  {}
func (s *scriptTarget) Warmup() int                        { return 0 }
func (s *scriptTarget) DetectionLag() int                  { return 0 }
func (s *scriptTarget) QuietRounds() int                   { return 1 }
func (s *scriptTarget) Close()                             {}
func (s *scriptTarget) Step() int {
	m := 0
	if s.r < len(s.moves) {
		m = s.moves[s.r]
	}
	s.r++
	return m
}

// TestMonitorClosureViolation drives the monitor with a scripted run
// that goes quiet, then moves again with no fault in flight — a direct
// closure violation.
func TestMonitorClosureViolation(t *testing.T) {
	okChecker := func(cfg core.Config[bool]) error { return nil }
	tgt := &scriptTarget{
		g:      cycleGraph(4),
		states: make([]bool, 4),
		// Rounds 1-2 active (Init recovery), quiet at 3-4 (epoch
		// closes), then a burst at rounds 5-6 violating closure.
		moves: []int{2, 1, 0, 0, 3, 1, 0, 0, 0, 0},
	}
	spec := faults.Spec[bool]{Check: okChecker, Bound: faults.SMI.Bound}
	rep := faults.RunSchedule[bool](core.NewSMI(), tgt, faults.Schedule{Seed: 1}, spec)
	if rep.ClosureViolations == 0 {
		t.Fatalf("scripted closure violation not detected: %+v", rep)
	}
	if !rep.Failed() {
		t.Fatal("closure violation did not fail the report")
	}
}

// TestMonitorBoundViolation scripts runs that keep moving past the
// bound: the monitor must flag the epoch, both when it converges late
// and when it never converges before the round cap.
func TestMonitorBoundViolation(t *testing.T) {
	okChecker := func(cfg core.Config[bool]) error { return nil }
	spec := faults.Spec[bool]{Check: okChecker, Bound: faults.SMI.Bound}
	const n = 4 // bound 2n+2 = 10; round cap 2·(10+2)+16 = 40
	for _, tc := range []struct {
		active int
		want   []string
	}{
		{16, []string{"re-convergence took 16 rounds, bound 10"}},
		{100, []string{"no convergence within round cap 40", "already 40 rounds past injection at interruption, bound 10"}},
	} {
		moves := make([]int, tc.active)
		for i := range moves {
			moves[i] = 1
		}
		tgt := &scriptTarget{g: cycleGraph(n), states: make([]bool, n), moves: moves}
		rep := faults.RunSchedule[bool](core.NewSMI(), tgt, faults.Schedule{Seed: 1}, spec)
		got := strings.Join(rep.Failures, "\n")
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%d active rounds: failures %q lack %q", tc.active, got, w)
			}
		}
	}
}

// TestSMIRecoveryLockstep runs an SMI campaign and records the O(n)
// constant: every epoch must converge, stay legitimate, and the
// observed maximum must respect the configured bound.
func TestSMIRecoveryLockstep(t *testing.T) {
	const n = 10
	g := cycleGraph(n)
	p := core.NewSMI()
	rng := rand.New(rand.NewSource(17))
	states := make([]bool, n)
	for v := range states {
		states[v] = p.Random(graph.NodeID(v), g.Neighbors(graph.NodeID(v)), rng)
	}
	sched := faults.Generate(21, g, faults.GenParams{Events: 6, Start: n + 2, Gap: 3 * n})
	tgt := sim.NewFaultLockstep[bool](core.NewSMI(), core.Config[bool]{G: g, States: states})
	defer tgt.Close()
	rep := faults.RunSchedule[bool](core.NewSMI(), tgt, sched, faults.SMI)
	if rep.Failed() {
		t.Fatalf("SMI campaign failed: %v", rep.Failures)
	}
	if rep.MaxEpochRounds() > faults.SMI.Bound(n) {
		t.Fatalf("SMI re-convergence constant too large: %d rounds", rep.MaxEpochRounds())
	}
}
