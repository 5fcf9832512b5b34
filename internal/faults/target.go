package faults

import (
	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Target is the single hook interface through which the engine injects
// faults into an execution model. Both executors implement it —
// sim.Lockstep via FaultLockstep and beacon.Network via FaultNetwork —
// so one Schedule replays, fault for fault and round for round, on
// every model.
//
// The methods split into three groups: injection primitives the engine
// composes high-level faults from (WriteState, SetLink, DropLink,
// Freeze), observation (Topology, Config), and model
// calibration constants that let the recovery monitor use one logical
// clock across executors whose physical behavior differs (Warmup,
// DetectionLag, QuietRounds).
//
// Implementations need not be safe for concurrent use: the engine is
// strictly sequential — inject, Step, observe.
type Target[S comparable] interface {
	// Model names the execution model ("lockstep" or "beacon").
	Model() string

	// Topology returns the live topology. The engine treats it as
	// read-only and mutates only through SetLink.
	Topology() *graph.Graph

	// Config snapshots the current global configuration. The States
	// slice may alias executor state; the engine copies before keeping
	// it across Steps.
	Config() core.Config[S]

	// WriteState overwrites node v's state — a transient memory fault or
	// an arbitrary resurrection state. The write is visible to v's next
	// move and to neighbors from the next exchange on.
	WriteState(v graph.NodeID, s S)

	// SetLink makes link e present or absent. Removing a link triggers
	// the executor's neighbor-loss path (dangling-reference repair via
	// core.RepairState), immediately for round-based models and after
	// beacon timeout for the beacon model.
	SetLink(e graph.Edge, present bool)

	// DropLink suppresses state exchange over live link e for the given
	// number of rounds: both endpoints keep acting on the last state
	// they heard from the other.
	DropLink(e graph.Edge, rounds int)

	// Freeze pins node v's entire neighbor view for the given number of
	// rounds: v keeps acting, but on stale reads.
	Freeze(v graph.NodeID, rounds int)

	// Step executes one logical round — the paper's beacon period — and
	// returns how many nodes moved.
	Step() int

	// Warmup is the number of throwaway Steps the engine runs before
	// round 0 so the model reaches steady operation (beacon neighbor
	// discovery); 0 for models with built-in topology knowledge.
	Warmup() int

	// DetectionLag is the worst-case number of rounds between a topology
	// change and the executor reacting to it (beacon expiry timeout); 0
	// when changes are visible immediately.
	DetectionLag() int

	// QuietRounds is the number of consecutive zero-move Steps that
	// imply a fixed point for this model; 1 for deterministic lockstep,
	// more for models with asynchronous slack.
	QuietRounds() int

	// Close releases executor resources (goroutines, queues). The target
	// is unusable afterwards.
	Close()
}
