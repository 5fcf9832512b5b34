// Package selfstab is a Go implementation of the self-stabilizing
// protocols for maximal matching (Algorithm SMM) and maximal independent
// sets (Algorithm SMI) for ad hoc networks of Goddard, Hedetniemi, Jacobs
// and Srimani (IPDPS 2003), together with the full substrate the paper's
// system model assumes: the synchronous beacon-round executor, a
// discrete-event beacon/link-layer simulator, mobility models, classical
// daemon schedulers, the Hsu–Huang baseline, and the verification
// oracles for every predicate.
//
// # Quick start
//
//	g := selfstab.RandomConnected(64, 0.1, rng)
//	res, matching := selfstab.RunSMM(g, seed)      // stabilizes in ≤ n+1 rounds
//	res, mis := selfstab.RunSMI(g, seed)           // stabilizes in O(n) rounds
//
// The executors all consume the same Protocol interface, so a protocol
// written once runs on the deterministic lockstep simulator, under the
// asynchronous beacon layer, or under a classical central/distributed
// daemon.
//
// This package is a curated facade over the implementation packages; the
// names it exports are aliases, so values flow freely between the facade
// and the internal packages in this module's tests and examples.
package selfstab

import (
	"math/rand"

	"selfstab/internal/adversary"
	"selfstab/internal/beacon"
	"selfstab/internal/core"
	"selfstab/internal/daemon"
	"selfstab/internal/graph"
	"selfstab/internal/harness"
	"selfstab/internal/mobility"
	"selfstab/internal/modelcheck"
	"selfstab/internal/protocols"
	"selfstab/internal/sim"
	"selfstab/internal/verify"
)

// Graph types and generators.
type (
	// Graph is an undirected simple graph on nodes 0..n-1.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Edge is an undirected edge with U < V.
	Edge = graph.Edge
	// Point is a position in the unit square (geometric graphs).
	Point = graph.Point
)

// Graph constructors and analysis, re-exported from internal/graph.
var (
	NewGraph          = graph.New
	NewEdge           = graph.NewEdge
	Path              = graph.Path
	Cycle             = graph.Cycle
	Complete          = graph.Complete
	Star              = graph.Star
	CompleteBipartite = graph.CompleteBipartite
	Grid              = graph.Grid
	Torus             = graph.Torus
	Hypercube         = graph.Hypercube
	RandomTree        = graph.RandomTree
	RandomGNP         = graph.RandomGNP
	RandomConnected   = graph.RandomConnected
	RandomUnitDisk    = graph.RandomUnitDisk
	UnitDisk          = graph.UnitDisk
	IsConnected       = graph.IsConnected
	Diameter          = graph.Diameter
	WriteDOT          = graph.WriteDOT
)

// DOTOptions controls WriteDOT rendering.
type DOTOptions = graph.DOTOptions

// Protocol framework.
type (
	// View is the local information a node consults when moving.
	View[S comparable] = core.View[S]
	// Config is a topology plus one state per node.
	Config[S comparable] = core.Config[S]
	// Pointer is SMM's per-node variable: Null or a neighbor ID.
	Pointer = core.Pointer
	// SMM is Algorithm SMM (synchronous maximal matching).
	SMM = core.SMM
	// SMI is Algorithm SMI (synchronous maximal independent set).
	SMI = core.SMI
	// SMMType is the paper's node-type classification (M, A°, A', PA, PM, PP).
	SMMType = core.SMMType
	// Census counts nodes per SMMType.
	Census = core.Census
)

// Protocol is a self-stabilizing protocol in the synchronous beacon
// model. See core.Protocol for the full contract.
type Protocol[S comparable] interface {
	Name() string
	Random(id NodeID, nbrs []NodeID, rng *rand.Rand) S
	Move(v View[S]) (next S, moved bool)
}

// Null is SMM's null pointer (i → Λ).
const Null = core.Null

// Core protocol constructors and helpers.
var (
	NewSMM          = core.NewSMM
	NewSMMArbitrary = core.NewSMMArbitrary
	NewSMI          = core.NewSMI
	PointAt         = core.PointAt
	MatchingOf      = core.MatchingOf
	SetOf           = core.SetOf
	ClassifySMM     = core.ClassifySMM
	CensusOf        = core.CensusOf
	NormalizeSMM    = core.NormalizeSMM
)

// Baselines and extensions.
var (
	NewHsuHuang     = protocols.NewHsuHuang
	NewColoring     = protocols.NewColoring
	NewRandMIS      = protocols.NewRandMIS
	NewSpanningTree = protocols.NewSpanningTree
	VerifyTree      = protocols.VerifyTree
	TreeEdges       = protocols.TreeEdges
	LeaderOf        = protocols.LeaderOf
)

// TreeState is the spanning-tree protocol's per-node state.
type TreeState = protocols.TreeState

// Hierarchical composition: a base protocol plus a layer that reads its
// outputs (collateral composition).
type (
	// LayerState pairs the base and layer states.
	LayerState[SA, SB comparable] = protocols.LayerState[SA, SB]
	// ClusterState is the clustering protocol's composed state: SMI
	// membership plus the head-assignment pointer.
	ClusterState = protocols.LayerState[bool, Pointer]
)

// Clustering composition: SMI heads plus per-node head assignment.
var (
	NewClustering    = protocols.NewClustering
	VerifyClustering = protocols.VerifyClustering
)

// RefState is the state of a daemon-refined protocol.
type RefState[S comparable] = protocols.RefState[S]

// Refine converts a central-daemon protocol to the synchronous model via
// randomized local mutual exclusion.
func Refine[S comparable](inner Protocol[S], n int, seed int64) Protocol[RefState[S]] {
	return protocols.Refine[S](inner, n, seed)
}

// Executors.
type (
	// Result summarizes a lockstep run.
	Result = sim.Result
	// BeaconParams configures the discrete-event link layer.
	BeaconParams = beacon.Params
	// BeaconResult summarizes a beacon-model run.
	BeaconResult = beacon.Result
)

// Lockstep is the reference synchronous executor.
type Lockstep[S comparable] = sim.Lockstep[S]

// NewLockstep wraps a protocol over a configuration.
func NewLockstep[S comparable](p Protocol[S], cfg Config[S]) *Lockstep[S] {
	return sim.NewLockstep[S](p, cfg)
}

// StaleLockstep executes with bounded-staleness views (see
// sim.StaleLockstep) — the E12 robustness probe.
type StaleLockstep[S comparable] = sim.StaleLockstep[S]

// NewStaleLockstep wraps a protocol with views up to maxLag rounds old.
func NewStaleLockstep[S comparable](p Protocol[S], cfg Config[S], maxLag int, rng *rand.Rand) *StaleLockstep[S] {
	return sim.NewStaleLockstep[S](p, cfg, maxLag, rng)
}

// BeaconNetwork is the discrete-event beacon simulator.
type BeaconNetwork[S comparable] = beacon.Network[S]

// NewBeaconNetwork builds a beacon network with empty neighbor tables.
func NewBeaconNetwork[S comparable](p Protocol[S], g *Graph, states []S, prm BeaconParams, rng *rand.Rand) *BeaconNetwork[S] {
	return beacon.NewNetwork[S](p, g, states, prm, rng)
}

// DefaultBeaconParams returns a loss-free low-delay link layer.
var DefaultBeaconParams = beacon.DefaultParams

// FaultLockstep is a Lockstep whose topology and states can be changed
// between rounds: SetLink flips a link and, on a lost link, repairs the
// states of both endpoints that pointed across it.
type FaultLockstep[S comparable] = sim.FaultLockstep[S]

// NewFaultLockstep wraps a protocol over a configuration (used in
// place); callers must Close it.
func NewFaultLockstep[S comparable](p Protocol[S], cfg Config[S]) *FaultLockstep[S] {
	return sim.NewFaultLockstep[S](p, cfg)
}

// Daemon scheduling (classical execution models).
type (
	// Pick selects the central daemon's strategy.
	Pick = daemon.Pick
	// DaemonResult summarizes a daemon-driven run.
	DaemonResult = daemon.Result
)

// Central daemon strategies.
const (
	PickRandom      = daemon.PickRandom
	PickMin         = daemon.PickMin
	PickMax         = daemon.PickMax
	PickAdversarial = daemon.PickAdversarial
)

// NewCentralRunner executes p on cfg under a central daemon.
func NewCentralRunner[S comparable](p Protocol[S], cfg Config[S], strategy Pick, rng *rand.Rand) *daemon.Runner[S] {
	return daemon.NewRunner[S](p, cfg, daemon.NewCentral[S](strategy, rng))
}

// Mobility.
type (
	// MobilityEvent is a link created or destroyed by movement.
	MobilityEvent = mobility.Event
	// Waypoint is the random-waypoint mobility model.
	Waypoint = mobility.Waypoint
	// Churn applies connectivity-preserving random edge events.
	Churn = mobility.Churn
)

// Mobility constructors.
var (
	NewWaypoint = mobility.NewWaypoint
	NewChurn    = mobility.NewChurn
)

// Verification oracles.
var (
	IsMatching              = verify.IsMatching
	IsMaximalMatching       = verify.IsMaximalMatching
	IsIndependentSet        = verify.IsIndependentSet
	IsMaximalIndependentSet = verify.IsMaximalIndependentSet
	IsDominatingSet         = verify.IsDominatingSet
	IsMinimalDominatingSet  = verify.IsMinimalDominatingSet
	IsProperColoring        = verify.IsProperColoring
	MaxMatchingSize         = verify.MaxMatchingSize
	MaxIndependentSetSize   = verify.MaxIndependentSetSize
)

// Experiments (the paper's reproduction tables).
type (
	// ExperimentOptions scopes an experiment sweep.
	ExperimentOptions = harness.Options
	// ExperimentTable is one rendered result table.
	ExperimentTable = harness.Table
)

// Experiment runners.
var (
	Experiments              = harness.All
	ExperimentByID           = harness.ByID
	RunAllExperiments        = harness.RunAll
	DefaultExperimentOptions = harness.DefaultOptions
	QuickExperimentOptions   = harness.QuickOptions
)

// Exhaustive model checking (small instances).
type (
	// ExhaustiveReport is the result of exploring every configuration.
	ExhaustiveReport[S comparable] = modelcheck.Report[S]
)

// Model-checking domains and runner.
var (
	SMMDomain      = modelcheck.SMMDomain
	SMIDomain      = modelcheck.SMIDomain
	ColoringDomain = modelcheck.ColoringDomain
)

// ExploreAll enumerates every configuration of a deterministic protocol
// on g, following the synchronous successor to a fixed point or cycle.
// See modelcheck.Explore.
func ExploreAll[S comparable](p Protocol[S], g *Graph, domain modelcheck.DomainFunc[S],
	maxConfigs uint64, checkFixed func([]S) error) (*ExhaustiveReport[S], error) {
	return modelcheck.Explore[S](p, g, domain, maxConfigs, checkFixed)
}

// Adversarial-start search (hill climbing for slow initial states).
type (
	// AdversaryOptions tunes the search budget.
	AdversaryOptions = adversary.Options
	// AdversaryResult reports the slowest start found.
	AdversaryResult = adversary.Result
)

// SearchWorstStart hill-climbs for initial configurations that maximize
// stabilization time. See adversary.Search.
func SearchWorstStart[S comparable](p Protocol[S], g *Graph, opt AdversaryOptions, rng *rand.Rand) AdversaryResult {
	return adversary.Search[S](p, g, opt, rng)
}

// DefaultAdversaryOptions returns the standard search budget.
var DefaultAdversaryOptions = adversary.DefaultOptions

// RunSMM runs Algorithm SMM on g from a random initial state derived
// from seed and returns the run result plus the resulting maximal
// matching. It is the one-call entry point for library users.
func RunSMM(g *Graph, seed int64) (Result, []Edge) {
	p := core.NewSMM()
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(p, rand.New(rand.NewSource(seed)))
	l := sim.NewLockstep[core.Pointer](p, cfg)
	res := l.Run(g.N() + 2)
	return res, core.MatchingOf(l.Config())
}

// RunSMI runs Algorithm SMI on g from a random initial state derived
// from seed and returns the run result plus the resulting maximal
// independent set.
func RunSMI(g *Graph, seed int64) (Result, []NodeID) {
	p := core.NewSMI()
	cfg := core.NewConfig[bool](g)
	cfg.Randomize(p, rand.New(rand.NewSource(seed)))
	l := sim.NewLockstep[bool](p, cfg)
	res := l.Run(g.N() + 2)
	return res, core.SetOf(l.Config())
}

// NewSMMConfig allocates an SMM configuration with all pointers Null (the
// canonical cold start).
func NewSMMConfig(g *Graph) Config[Pointer] {
	cfg := core.NewConfig[core.Pointer](g)
	for i := range cfg.States {
		cfg.States[i] = core.Null
	}
	return cfg
}

// NewSMIConfig allocates an SMI configuration with all bits zero.
func NewSMIConfig(g *Graph) Config[bool] {
	return core.NewConfig[bool](g)
}

// RandomizeConfig draws an arbitrary initial state for every node.
func RandomizeConfig[S comparable](cfg Config[S], p Protocol[S], rng *rand.Rand) {
	cfg.Randomize(p, rng)
}
