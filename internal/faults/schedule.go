// Package faults implements the deterministic fault-injection engine
// behind the repository's recovery verification: typed fault events on a
// logical round clock (node crash/restart with arbitrary resurrection
// state, transient state corruption, beacon-loss bursts, network
// partition and heal, neighbor-table staleness, mobility-driven link
// churn), injected through one small hook interface implemented by all
// three execution models, plus a recovery monitor that segments a run
// into fault epochs and checks — per epoch — closure (a legitimate
// configuration stays legitimate absent faults), re-convergence within
// the paper's bound, and containment (states changed during recovery
// versus the fault radius).
//
// Self-stabilization *is* a fault-tolerance claim: Theorems 1–2 promise
// recovery from arbitrary transient faults. This package makes that
// claim directly testable, under identical fault campaigns, for every
// executor and protocol in the module. Everything here is deterministic:
// a schedule is a concrete value (all randomness is resolved when it is
// generated), the engine derives any remaining randomness — corruption
// and resurrection states — from per-event seed streams, and reports are
// plain data with canonical ordering.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"selfstab/internal/graph"
)

// Kind discriminates fault events.
type Kind uint8

const (
	// Init is the pseudo-event opening the first epoch: the arbitrary
	// initial configuration itself, the paper's canonical "fault".
	Init Kind = iota
	// Crash takes the targeted nodes off the air for Dur rounds: every
	// incident link is cut (in an ad hoc network a crashed node is
	// indistinguishable from one that left radio range), and each node is
	// resurrected with an arbitrary state drawn from the protocol's full
	// state space — the paper's "arbitrary resurrection state".
	Crash
	// Resurrect is the engine-generated counterpart of Crash: links are
	// restored and the node restarts with an arbitrary state. It never
	// appears in a schedule; it shows up in epoch descriptions.
	Resurrect
	// Corrupt overwrites the states of the targeted nodes with arbitrary
	// states — a transient memory fault.
	Corrupt
	// Drop is a beacon-loss burst: for Dur rounds the targeted links
	// exchange no fresh state (the beacon model drops the beacons; the
	// view models pin the last exchanged states).
	Drop
	// Partition cuts every link between Nodes and the rest of the
	// network until the matching Heal.
	Partition
	// Heal restores the most recent unhealed Partition's cut links.
	Heal
	// Stale freezes the targeted nodes' neighbor views for Dur rounds:
	// they keep acting, but on stale reads (Cohen et al.'s stale
	// link-register model).
	Stale
	// Churn applies K connectivity-preserving random link events through
	// the mobility generator.
	Churn
)

// AllKinds lists the schedulable kinds in canonical order (Init and
// Resurrect are engine-internal).
var AllKinds = [...]Kind{Crash, Corrupt, Drop, Partition, Stale, Churn}

// kindNames maps kinds to their wire/report names.
var kindNames = map[Kind]string{
	Init:      "init",
	Crash:     "crash",
	Resurrect: "resurrect",
	Corrupt:   "corrupt",
	Drop:      "drop",
	Partition: "partition",
	Heal:      "heal",
	Stale:     "stale",
	Churn:     "churn",
}

// String renders the kind's canonical name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name, keeping schedule artifacts
// readable and stable across const reordering.
func (k Kind) MarshalJSON() ([]byte, error) {
	n, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("faults: unknown kind %d", uint8(k))
	}
	return json.Marshal(n)
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for kk, n := range kindNames {
		if n == name {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("faults: unknown kind %q", name)
}

// Event is one fault on the logical clock. Which fields matter depends
// on Kind; unused fields are zero.
type Event struct {
	// Round is the logical round (post-warmup Step count) at which the
	// event is injected.
	Round int  `json:"round"`
	Kind  Kind `json:"kind"`
	// Nodes targets Crash, Corrupt and Stale, and names one side of a
	// Partition.
	Nodes []graph.NodeID `json:"nodes,omitempty"`
	// Links targets Drop.
	Links []graph.Edge `json:"links,omitempty"`
	// K is the event count for Churn.
	K int `json:"k,omitempty"`
	// Dur is the duration in rounds for Crash (down time), Drop and
	// Stale.
	Dur int `json:"dur,omitempty"`
}

// String renders e.g. "r12 corrupt nodes=[3 7]" or "r30 drop links=[{0,1}] dur=4".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d %s", e.Round, e.Kind)
	if len(e.Nodes) > 0 {
		fmt.Fprintf(&b, " nodes=%v", e.Nodes)
	}
	if len(e.Links) > 0 {
		fmt.Fprintf(&b, " links=%v", e.Links)
	}
	if e.K > 0 {
		fmt.Fprintf(&b, " k=%d", e.K)
	}
	if e.Dur > 0 {
		fmt.Fprintf(&b, " dur=%d", e.Dur)
	}
	return b.String()
}

// Schedule is a concrete, replayable fault campaign: every target and
// duration is resolved, so running it twice — on any execution model —
// injects exactly the same faults at the same logical rounds.
type Schedule struct {
	// Seed is the seed the schedule was generated from; the engine also
	// derives corruption/resurrection state streams from it. Hand-built
	// schedules may use any value.
	Seed int64 `json:"seed"`
	// Events holds the faults in ascending Round order.
	Events []Event `json:"events"`
}

// String renders one event per line.
func (s Schedule) String() string {
	if len(s.Events) == 0 {
		return "(no faults)"
	}
	lines := make([]string, len(s.Events))
	for i, e := range s.Events {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// maxDur bounds generated event durations in rounds.
const maxDur = 4

// GenParams scopes Generate.
type GenParams struct {
	// Events is the number of fault events to generate.
	Events int
	// MaxBurst bounds the nodes/links targeted per event (default 3).
	MaxBurst int
	// Start offsets the first event: events begin after Start rounds,
	// leaving the initial epoch room to converge (default 0).
	Start int
	// Gap bounds the spacing between events: consecutive events are
	// 1..Gap rounds apart (default n+6, so most epochs can complete).
	Gap int
	// Kinds restricts the generated kinds (default AllKinds).
	Kinds []Kind
}

// Generate draws a randomized schedule for topology g from seed. The
// result is fully concrete — targets, durations and rounds are resolved
// here — so the same seed yields byte-identical schedules everywhere. A
// generated Partition is always closed by a matching Heal.
func Generate(seed int64, g *graph.Graph, prm GenParams) Schedule {
	if prm.MaxBurst <= 0 {
		prm.MaxBurst = 3
	}
	if prm.Gap <= 0 {
		prm.Gap = g.N() + 6
	}
	kinds := make([]Kind, 0, len(prm.Kinds))
	for _, k := range prm.Kinds {
		// Init and Resurrect are engine-internal pseudo-events; a
		// schedule must never inject them.
		if k != Init && k != Resurrect {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		kinds = AllKinds[:]
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	var events []Event
	round := prm.Start
	partitioned := false
	for len(events) < prm.Events {
		round += 1 + rng.Intn(prm.Gap)
		kind := kinds[rng.Intn(len(kinds))]
		if partitioned {
			// While split, no nested partition and no churn (the churn
			// generator requires a connected graph); heal instead.
			if kind == Partition || kind == Churn {
				kind = Heal
			}
		} else if kind == Heal {
			kind = Corrupt
		}
		ev := Event{Round: round, Kind: kind}
		switch kind {
		case Crash:
			ev.Nodes = pickNodes(rng, n, 1+rng.Intn(prm.MaxBurst))
			ev.Dur = 1 + rng.Intn(maxDur)
		case Corrupt:
			ev.Nodes = pickNodes(rng, n, 1+rng.Intn(prm.MaxBurst))
		case Drop:
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			k := 1 + rng.Intn(prm.MaxBurst)
			if k > len(edges) {
				k = len(edges)
			}
			perm := rng.Perm(len(edges))[:k]
			sort.Ints(perm)
			for _, i := range perm {
				ev.Links = append(ev.Links, edges[i])
			}
			ev.Dur = 1 + rng.Intn(maxDur)
		case Partition:
			if n < 2 {
				continue
			}
			ev.Nodes = pickNodes(rng, n, 1+rng.Intn(n/2+1))
			partitioned = true
		case Heal:
			partitioned = false
		case Stale:
			ev.Nodes = pickNodes(rng, n, 1+rng.Intn(prm.MaxBurst))
			ev.Dur = 1 + rng.Intn(maxDur)
		case Churn:
			ev.K = 1 + rng.Intn(prm.MaxBurst)
		default:
			// Init and Resurrect are filtered out of kinds above; no
			// other Kind exists.
		}
		events = append(events, ev)
	}
	if partitioned {
		round += 1 + rng.Intn(prm.Gap)
		events = append(events, Event{Round: round, Kind: Heal})
	}
	return Schedule{Seed: seed, Events: events}
}

// pickNodes draws k distinct node IDs, ascending.
func pickNodes(rng *rand.Rand, n, k int) []graph.NodeID {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	ids := make([]graph.NodeID, k)
	for i, v := range perm {
		ids[i] = graph.NodeID(v)
	}
	return ids
}
