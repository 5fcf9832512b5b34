package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/mobility"
)

// Epoch is the monitor's verdict on one fault and the recovery that
// followed it.
type Epoch struct {
	// Index is the epoch's position in the run (0 = the Init epoch).
	Index int `json:"index"`
	// Kind is the fault kind that opened the epoch.
	Kind Kind `json:"kind"`
	// Desc renders the concrete injection, e.g. "r12 corrupt nodes=[3 7]".
	Desc string `json:"desc"`
	// Round is the logical round the fault was injected at.
	Round int `json:"round"`
	// Rounds is the re-convergence time: rounds from injection to the
	// last round with a move.
	Rounds int `json:"rounds"`
	// Bound is the enforced re-convergence bound for this epoch: the
	// protocol's Spec bound, plus the target's detection lag and the
	// event's duration, because the executor cannot even begin
	// repairing until the fault's effects end and are detected.
	Bound int `json:"bound"`
	// Converged reports whether a quiet plateau was reached before the
	// next fault (or the round cap).
	Converged bool `json:"converged"`
	// Interrupted reports the next fault arrived first. Interrupted
	// epochs fail only if they had already exceeded Bound.
	Interrupted bool `json:"interrupted"`
	// WithinBound is Rounds <= Bound (meaningful when Converged).
	WithinBound bool `json:"within_bound"`
	// Legitimate is the checker's verdict on the converged
	// configuration; CheckErr carries the violation when false.
	Legitimate bool   `json:"legitimate"`
	CheckErr   string `json:"check_err,omitempty"`
	// Disrupted counts nodes whose state at convergence differs from
	// just before the injection — the recovery's write footprint.
	Disrupted int `json:"disrupted"`
	// Radius counts nodes directly touched by the fault (targets or link
	// endpoints); Disrupted/Radius is the containment ratio.
	Radius int `json:"radius"`
}

// Report is the monitor's account of one schedule run on one target.
// It is plain ordered data: running the same schedule on the same
// target twice yields identical reports.
type Report struct {
	Model    string  `json:"model"`
	Protocol string  `json:"protocol"`
	N        int     `json:"n"`
	Rounds   int     `json:"rounds"`
	Epochs   []Epoch `json:"epochs"`
	// ClosureViolations counts rounds in which nodes moved out of a
	// converged legitimate configuration with no fault in flight —
	// direct violations of the paper's closure property.
	ClosureViolations int `json:"closure_violations"`
	// Failures lists every property violation in injection order.
	Failures []string `json:"failures,omitempty"`
	// Notes records benign anomalies (e.g. a churn event skipped because
	// the graph was disconnected).
	Notes []string `json:"notes,omitempty"`
}

// Failed reports whether any monitored property was violated.
func (r Report) Failed() bool { return len(r.Failures) > 0 }

// MaxEpochRounds returns the largest re-convergence time over converged
// non-Init epochs, or 0 if there were none — the observed stabilization
// constant E15 records.
func (r Report) MaxEpochRounds() int {
	max := 0
	for _, ep := range r.Epochs {
		if ep.Kind != Init && ep.Converged && ep.Rounds > max {
			max = ep.Rounds
		}
	}
	return max
}

// String summarizes the report in one line.
func (r Report) String() string {
	status := "ok"
	if r.Failed() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Failures))
	}
	return fmt.Sprintf("%s/%s n=%d: %d epochs in %d rounds, %d closure violations: %s",
		r.Model, r.Protocol, r.N, len(r.Epochs), r.Rounds, r.ClosureViolations, status)
}

// engine is the per-run state of RunSchedule.
type engine[S comparable] struct {
	p    core.Protocol[S]
	t    Target[S]
	spec Spec[S]
	seed int64

	report Report

	// r is the logical clock: Steps taken after warmup.
	r int
	// lastActive is the last round with a move or an injection.
	lastActive int
	// effectsUntil is the round after which no injected fault is still
	// in force (durations and detection lags included); convergence and
	// closure are only judged past it.
	effectsUntil int

	// cur is the open epoch, nil between epochs; snapshot holds the
	// pre-injection states backing cur's Disrupted count.
	cur      *Epoch
	snapshot []S

	// convergedLegit: the last closed epoch converged to a legitimate
	// configuration, so further moves are closure violations.
	convergedLegit bool
	// quietSince tracks the violation streak so each burst of illegal
	// activity produces one failure entry.
	inViolation bool

	// cutBy refcounts link cuts (partitions and crashes may cut the same
	// link); a link is physically restored when its count returns to 0.
	cutBy map[graph.Edge]int
	// down marks crashed nodes; lost remembers the links each crash cut.
	down map[graph.NodeID]bool
	lost map[graph.NodeID][]graph.Edge
	// partitions is the stack of open partition cuts, healed LIFO.
	partitions [][]graph.Edge
	// resurrections are pending crash recoveries in schedule order.
	resurrections []resurrection
}

type resurrection struct {
	round int
	nodes []graph.NodeID
	evIdx int
}

// tailRounds is how many rounds the monitor keeps observing after the
// final epoch converges, so closure violations out of the final fixed
// point are caught too.
const tailRounds = 8

// RunSchedule replays sched on target t and monitors every epoch for
// closure, re-convergence within spec's bound, legitimacy (via spec's
// checker), and containment. The protocol p supplies the arbitrary
// states written by Corrupt and Crash resurrection; their randomness
// comes from per-event streams derived from sched.Seed, so the
// injection into a given event is independent of every other event.
// The run stops tailRounds after the last epoch closes, or at a round
// cap derived from the schedule's horizon and the bound.
func RunSchedule[S comparable](p core.Protocol[S], t Target[S], sched Schedule, spec Spec[S]) Report {
	events := append([]Event(nil), sched.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Round < events[j].Round })
	n := t.Topology().N()
	last, durs := 0, 0
	for _, ev := range events {
		last = max(last, ev.Round)
		durs += ev.Dur
	}
	maxRounds := last + durs + (len(events)+2)*(spec.Bound(n)+t.DetectionLag()+2) + 16
	e := &engine[S]{
		p: p, t: t, spec: spec, seed: sched.Seed,
		report: Report{Model: t.Model(), Protocol: p.Name(), N: n},
		cutBy:  make(map[graph.Edge]int),
		down:   make(map[graph.NodeID]bool),
		lost:   make(map[graph.NodeID][]graph.Edge),
	}
	for i := 0; i < t.Warmup(); i++ {
		t.Step()
	}
	// The Init pseudo-epoch: the arbitrary initial configuration is the
	// first "fault", with the whole network as its radius.
	e.openEpoch(Event{Kind: Init}, -1, n)
	quiet := t.QuietRounds()
	if quiet < 1 {
		quiet = 1
	}
	evIdx := 0
	tail := tailRounds
	for {
		// Inject everything due this round: crash recoveries first (they
		// restore preconditions later events may rely on), then the
		// scheduled events.
		for len(e.resurrections) > 0 && e.resurrections[0].round <= e.r {
			res := e.resurrections[0]
			e.resurrections = e.resurrections[1:]
			e.applyResurrection(res)
		}
		for evIdx < len(events) && events[evIdx].Round <= e.r {
			e.applyEvent(events[evIdx], evIdx)
			evIdx++
		}
		if evIdx == len(events) && len(e.resurrections) == 0 && e.cur == nil {
			// All faults processed and the last epoch closed, which no
			// later round undoes: keep observing for tailRounds so late
			// closure violations are still caught, then stop.
			if tail == 0 {
				break
			}
			tail--
		}
		if e.r >= maxRounds {
			if e.cur != nil {
				e.fail("epoch %d (%s): no convergence within round cap %d", e.cur.Index, e.cur.Desc, maxRounds)
				e.closeEpoch(false)
			}
			break
		}
		moved := e.t.Step()
		e.r++
		if moved > 0 {
			e.lastActive = e.r
			if e.cur == nil && e.r > e.effectsUntil {
				// Activity out of a settled configuration with no fault
				// in force.
				if e.convergedLegit {
					e.report.ClosureViolations++
					if !e.inViolation {
						e.fail("closure violated: %d moves at round %d out of a legitimate fixed point", moved, e.r)
						e.inViolation = true
					}
				}
			}
		} else {
			e.inViolation = false
		}
		if e.cur != nil && e.r >= e.effectsUntil && e.r-e.lastActive >= quiet {
			e.closeEpoch(true)
		}
	}
	e.report.Rounds = e.r
	return e.report
}

func (e *engine[S]) fail(format string, args ...any) {
	e.report.Failures = append(e.report.Failures, fmt.Sprintf(format, args...))
}

func (e *engine[S]) note(format string, args ...any) {
	e.report.Notes = append(e.report.Notes, fmt.Sprintf(format, args...))
}

// snapshotStates copies the current global state vector.
func (e *engine[S]) snapshotStates() []S {
	cfg := e.t.Config()
	return append([]S(nil), cfg.States...)
}

// openEpoch interrupts any unfinished epoch and opens a new one for the
// fault described by ev (round −1 means "now").
func (e *engine[S]) openEpoch(ev Event, round, radius int) {
	if e.cur != nil {
		e.closeEpoch(false)
	}
	if round < 0 {
		round = e.r
	}
	desc := ev.String()
	if ev.Kind == Init {
		desc = "init (arbitrary initial configuration)"
	}
	e.snapshot = e.snapshotStates()
	e.cur = &Epoch{
		Index:  len(e.report.Epochs),
		Kind:   ev.Kind,
		Desc:   desc,
		Round:  round,
		Bound:  e.spec.Bound(e.report.N) + e.t.DetectionLag() + ev.Dur,
		Radius: radius,
	}
	e.lastActive = e.r
	e.convergedLegit = false
	e.inViolation = false
}

// closeEpoch finalizes the open epoch, as converged or as interrupted
// by the next fault.
func (e *engine[S]) closeEpoch(converged bool) {
	ep := e.cur
	e.cur = nil
	ep.Rounds = e.lastActive - ep.Round
	if ep.Rounds < 0 {
		ep.Rounds = 0
	}
	ep.WithinBound = ep.Rounds <= ep.Bound
	ep.Disrupted = e.diffStates(e.snapshot)
	if converged {
		ep.Converged = true
		if !ep.WithinBound {
			e.fail("epoch %d (%s): re-convergence took %d rounds, bound %d", ep.Index, ep.Desc, ep.Rounds, ep.Bound)
		}
		err := e.spec.Check(e.t.Config())
		ep.Legitimate = err == nil
		if err != nil {
			ep.CheckErr = err.Error()
			e.fail("epoch %d (%s): converged to illegitimate configuration: %v", ep.Index, ep.Desc, err)
		}
		e.convergedLegit = ep.Legitimate
	} else {
		ep.Interrupted = true
		if !ep.WithinBound {
			e.fail("epoch %d (%s): already %d rounds past injection at interruption, bound %d", ep.Index, ep.Desc, ep.Rounds, ep.Bound)
		}
	}
	e.report.Epochs = append(e.report.Epochs, *ep)
}

// diffStates counts nodes whose current state differs from the snapshot.
func (e *engine[S]) diffStates(snap []S) int {
	cfg := e.t.Config()
	d := 0
	for v, s := range cfg.States {
		if s != snap[v] {
			d++
		}
	}
	return d
}

// bumpEffects extends the window during which convergence must not be
// declared and activity is not a closure violation.
func (e *engine[S]) bumpEffects(dur int) {
	until := e.r + dur + e.t.DetectionLag()
	if until > e.effectsUntil {
		e.effectsUntil = until
	}
}

// applyEvent injects one scheduled fault and opens its epoch.
func (e *engine[S]) applyEvent(ev Event, evIdx int) {
	switch ev.Kind {
	case Crash:
		e.applyCrash(ev, evIdx)
	case Corrupt:
		e.openEpoch(ev, ev.Round, len(ev.Nodes))
		for i, v := range ev.Nodes {
			rng := rand.New(rand.NewSource(core.DeriveSeed(e.seed, []string{"corrupt"}, evIdx, i)))
			e.t.WriteState(v, e.p.Random(v, e.t.Topology().Neighbors(v), rng))
		}
		e.bumpEffects(0)
	case Drop:
		var touched []graph.NodeID
		e.openEpoch(ev, ev.Round, 0)
		for _, l := range ev.Links {
			if !e.t.Topology().HasEdge(l.U, l.V) {
				continue // churned or cut away since scheduling
			}
			e.t.DropLink(l, ev.Dur)
			touched = append(touched, l.U, l.V)
		}
		e.cur.Radius = distinctNodes(touched)
		e.bumpEffects(ev.Dur)
	case Partition:
		cut := e.crossingEdges(ev.Nodes)
		e.openEpoch(ev, ev.Round, distinctEndpoints(cut))
		for _, l := range cut {
			e.cutLink(l)
		}
		e.partitions = append(e.partitions, cut)
		e.bumpEffects(0)
	case Heal:
		if len(e.partitions) == 0 {
			e.note("r%d heal with no open partition; ignored", ev.Round)
			return
		}
		cut := e.partitions[len(e.partitions)-1]
		e.partitions = e.partitions[:len(e.partitions)-1]
		e.openEpoch(ev, ev.Round, distinctEndpoints(cut))
		for _, l := range cut {
			e.restoreLink(l)
		}
		e.bumpEffects(0)
	case Stale:
		e.openEpoch(ev, ev.Round, len(ev.Nodes))
		for _, v := range ev.Nodes {
			e.t.Freeze(v, ev.Dur)
		}
		e.bumpEffects(ev.Dur)
	case Churn:
		e.applyChurn(ev, evIdx)
	default:
		e.note("r%d %s: not injectable; ignored", ev.Round, ev.Kind)
	}
}

// applyCrash cuts every link of the targeted nodes and schedules their
// resurrection with arbitrary states after ev.Dur rounds.
func (e *engine[S]) applyCrash(ev Event, evIdx int) {
	e.openEpoch(ev, ev.Round, len(ev.Nodes))
	var crashed []graph.NodeID
	for _, v := range ev.Nodes {
		if e.down[v] {
			continue // already down; the earlier crash owns its links
		}
		e.down[v] = true
		inc := e.incidentEdges(v)
		e.lost[v] = inc
		for _, l := range inc {
			e.cutLink(l)
		}
		crashed = append(crashed, v)
	}
	dur := ev.Dur
	if dur < 1 {
		dur = 1
	}
	if len(crashed) > 0 {
		e.resurrections = append(e.resurrections, resurrection{round: ev.Round + dur, nodes: crashed, evIdx: evIdx})
		sort.SliceStable(e.resurrections, func(i, j int) bool { return e.resurrections[i].round < e.resurrections[j].round })
	}
	e.bumpEffects(dur)
}

// applyResurrection restores a crashed node's links and restarts it with
// an arbitrary state — the fault engine's Resurrect pseudo-event.
func (e *engine[S]) applyResurrection(res resurrection) {
	ev := Event{Round: e.r, Kind: Resurrect, Nodes: res.nodes}
	e.openEpoch(ev, -1, len(res.nodes))
	for i, v := range res.nodes {
		delete(e.down, v)
		for _, l := range e.lost[v] {
			e.restoreLink(l)
		}
		delete(e.lost, v)
		rng := rand.New(rand.NewSource(core.DeriveSeed(e.seed, []string{"resurrect"}, res.evIdx, i)))
		e.t.WriteState(v, e.p.Random(v, e.t.Topology().Neighbors(v), rng))
	}
	e.bumpEffects(0)
}

// applyChurn mutates the topology through the connectivity-preserving
// mobility generator. Churn is skipped (with a note) while the graph is
// disconnected or links are administratively cut: the generator requires
// connectivity, and churning a cut link would corrupt the cut ledger.
func (e *engine[S]) applyChurn(ev Event, evIdx int) {
	if len(e.cutBy) > 0 || !graph.IsConnected(e.t.Topology()) {
		e.note("r%d churn skipped: topology cut or disconnected", ev.Round)
		return
	}
	rng := rand.New(rand.NewSource(core.DeriveSeed(e.seed, []string{"churn"}, evIdx, 0)))
	clone := e.t.Topology().Clone()
	churn := mobility.NewChurn(clone, rng)
	changes := churn.Apply(ev.K)
	if len(changes) == 0 {
		e.note("r%d churn produced no events", ev.Round)
		return
	}
	// Open the epoch (snapshotting the pre-fault states) before applying:
	// link removal triggers dangling-reference repair, which must count
	// as disruption.
	e.openEpoch(ev, ev.Round, 0)
	var touched []graph.NodeID
	var parts []string
	for _, ch := range changes {
		e.t.SetLink(ch.Edge, ch.Add)
		touched = append(touched, ch.Edge.U, ch.Edge.V)
		parts = append(parts, ch.String())
	}
	e.cur.Radius = distinctNodes(touched)
	e.cur.Desc = fmt.Sprintf("r%d churn %s", ev.Round, strings.Join(parts, " "))
	e.bumpEffects(0)
}

// incidentEdges lists node v's links: those live in the topology plus
// those currently cut (a resurrection must not restore a link another
// open cut also holds down without going through the refcount).
func (e *engine[S]) incidentEdges(v graph.NodeID) []graph.Edge {
	var inc []graph.Edge
	for _, u := range e.t.Topology().Neighbors(v) {
		inc = append(inc, graph.NewEdge(v, u))
	}
	for l := range e.cutBy {
		if l.U == v || l.V == v {
			inc = append(inc, l)
		}
	}
	sort.Slice(inc, func(i, j int) bool {
		if inc[i].U != inc[j].U {
			return inc[i].U < inc[j].U
		}
		return inc[i].V < inc[j].V
	})
	// The two sources are disjoint (a cut link is not in the topology),
	// so no dedup is needed.
	return inc
}

// crossingEdges lists the live links between side and its complement.
func (e *engine[S]) crossingEdges(side []graph.NodeID) []graph.Edge {
	in := make(map[graph.NodeID]bool, len(side))
	for _, v := range side {
		in[v] = true
	}
	var cut []graph.Edge
	for _, l := range e.t.Topology().Edges() {
		if in[l.U] != in[l.V] {
			cut = append(cut, l)
		}
	}
	return cut
}

// cutLink removes link l, refcounting overlapping cuts.
func (e *engine[S]) cutLink(l graph.Edge) {
	if e.cutBy[l] == 0 {
		e.t.SetLink(l, false)
	}
	e.cutBy[l]++
}

// restoreLink undoes one cut of l; the link reappears when the last cut
// is lifted.
func (e *engine[S]) restoreLink(l graph.Edge) {
	if e.cutBy[l] == 0 {
		return
	}
	e.cutBy[l]--
	if e.cutBy[l] == 0 {
		delete(e.cutBy, l)
		e.t.SetLink(l, true)
	}
}

// distinctNodes counts the distinct IDs in ids.
func distinctNodes(ids []graph.NodeID) int {
	seen := make(map[graph.NodeID]bool, len(ids))
	for _, v := range ids {
		seen[v] = true
	}
	return len(seen)
}

// distinctEndpoints counts the distinct endpoints of edges.
func distinctEndpoints(edges []graph.Edge) int {
	var ids []graph.NodeID
	for _, l := range edges {
		ids = append(ids, l.U, l.V)
	}
	return distinctNodes(ids)
}
