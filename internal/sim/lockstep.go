// Package sim provides the reference executor for protocols in the
// synchronous beacon model: a deterministic lockstep simulator in which
// every round each node observes the round-t states of all its neighbors
// and all privileged nodes move simultaneously. A round here corresponds
// exactly to the paper's "period of time in which each node in the system
// receives beacon messages from all its neighbors".
//
// One engine runs every Lockstep: the active-frontier round of
// sharded.go over K contiguous node ranges, K=1 by default. After each
// round only nodes whose local view may have changed — movers, nodes
// whose state changed, and the neighbors of the latter — are enqueued
// for evaluation next round. Because Move is a pure function of the
// local view (enforced by the purity analyzer; see DESIGN.md,
// "Active-frontier scheduling"), a node outside the frontier is
// guaranteed to be a no-op, so every Result, trace, and state sequence
// is byte-identical to the full scan. The reference engine
// (NewReferenceLockstep) runs the same round with every node evaluated
// every round; the metamorphic suite replays random workloads on both
// and demands equality.
package sim

import (
	"context"
	"fmt"
	"sync"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Result summarizes a run.
type Result struct {
	// Rounds is the number of rounds in which at least one node moved —
	// the paper's stabilization time. If Stable is false, Rounds equals
	// the round limit.
	Rounds int
	// Moves is the total number of individual node moves.
	Moves int
	// Stable reports whether a fixed point was reached within the limit.
	Stable bool
}

// String renders e.g. "stable in 5 rounds (12 moves)".
func (r Result) String() string {
	if r.Stable {
		return fmt.Sprintf("stable in %d rounds (%d moves)", r.Rounds, r.Moves)
	}
	return fmt.Sprintf("NOT stable after %d rounds (%d moves)", r.Rounds, r.Moves)
}

// filteredViewer is the reusable viewer-aware peer reader of filtered runs:
// one value per shard, re-targeted per node by writing viewer, so the
// filtered path allocates nothing per node (the method value over the
// pointer is bound once, when the filter is installed).
type filteredViewer[S comparable] struct {
	viewer graph.NodeID
	states []S
	filter func(viewer, nbr graph.NodeID, fresh S) S
}

func (f *filteredViewer[S]) read(j graph.NodeID) S {
	return f.filter(f.viewer, j, f.states[j])
}

// Lockstep runs one protocol on one configuration in lockstep rounds.
// It is the reference semantics the beacon simulator is validated
// against.
type Lockstep[S comparable] struct {
	p      core.Protocol[S]
	cfg    core.Config[S]
	next   []S
	moved  []bool // per-node active flag of the current round
	rounds int
	moves  int
	// evals counts node evaluations (the drained sizes, n for a full
	// round) and fullRounds the full rounds, quiet rounds included: the
	// work behind rounds and moves, which the benchmarks report.
	evals      int
	fullRounds int
	// filtered routes every neighbor-state read of a round through the
	// filter filterPeers bound into each shard, as (viewer, neighbor,
	// fresh state). It is how StaleLockstep (views from past rounds,
	// always on) and the fault layer (beacon-loss bursts and frozen
	// neighbor tables, on only while a pin is live) serve stale views
	// without touching the true states. Unfiltered rounds run the batch
	// kernel where the protocol has one.
	filtered bool

	// fullScan selects the reference engine: every round is a full round.
	fullScan bool
	// topo is the graph version the frontier reflects. Every neighbor
	// read goes to the graph's row store itself, so there is no derived
	// adjacency to keep in step — only this version.
	topo uint64
	// part splits the node IDs into contiguous ranges, one per shard;
	// shards[s] holds range s's frontier, drain buffer and counters (see
	// sharded.go for the round that runs over them).
	part   *graph.Partition
	shards []shard[S]

	// peerFn is the unfiltered per-node Peer reader of the generic Move
	// path, allocated once here instead of once per round; kernel
	// protocols read the state vector directly and never get one.
	peerFn func(graph.NodeID) S

	// kern, when the protocol provides one, evaluates a shard's drained
	// nodes in a single call on the unfiltered path — no View
	// construction and no interface dispatch per node — and installs
	// them, pruning the next frontier to the protocol's true read
	// dependencies instead of whole closed neighborhoods. It is nil for
	// wrapped or third-party protocols, which take the per-node Move loop
	// and the generic commit and mark.
	kern core.Kernel[S]

	// fullRound makes the next round evaluate everyone: set at Run entry,
	// on an unreported topology edit, and after a dense round (see
	// dense), which derives no marks. It outlives the call that set it,
	// so a dense last round makes the next call's first round a full one.
	fullRound  bool
	roundFull  bool // the round in flight is a full round
	parallel   bool // the round in flight uses the worker pool
	lastActive int  // drained size of the previous round, the pool heuristic

	// workCh feeds the shard workers; nil until a round first needs the
	// pool, and always nil with a single shard.
	workCh chan shardReq
	wg     sync.WaitGroup
}

// NewLockstep wraps protocol p over configuration cfg with the
// active-frontier engine at one shard (the SetShards test seam can raise
// that default). The configuration is used in place (not copied):
// callers observing cfg see the evolving states.
//
// Callers that mutate cfg.States or the topology directly between
// rounds must either call Run (which re-dirties everything at entry) or
// notify the engine through DirtyState/DirtyEdge; the fault adapters do
// the latter. Topology edits are self-detected via graph.Version.
func NewLockstep[S comparable](p core.Protocol[S], cfg core.Config[S]) *Lockstep[S] {
	return NewShardedLockstep(p, cfg, int(defaultShards.Load()))
}

// NewShardedLockstep wraps protocol p over configuration cfg with the
// frontier engine at the given shard count, clamped to [1, n].
// Semantics do not depend on the count — same Results, same state
// evolution, byte for byte — but with two or more shards, rounds large
// enough to pay for dispatch run shard-parallel. Call Close when done to
// release the worker pool (a pool is only spawned once a round exceeds
// an internal size threshold, so small executions and single-shard
// engines hold no goroutines).
func NewShardedLockstep[S comparable](p core.Protocol[S], cfg core.Config[S], shards int) *Lockstep[S] {
	n := len(cfg.States)
	l := &Lockstep[S]{
		p:         p,
		cfg:       cfg,
		next:      make([]S, n),
		moved:     make([]bool, n),
		fullScan:  referenceScan.Load(),
		topo:      cfg.G.Version(),
		part:      graph.NewPartition(n, shards),
		fullRound: true,
	}
	l.kern, _ = p.(core.Kernel[S])
	if l.kern == nil {
		states := cfg.States // the slice header is stable; only elements change
		l.peerFn = func(j graph.NodeID) S { return states[j] }
	}
	l.shards = make([]shard[S], l.part.K())
	for s := range l.shards {
		lo, hi := l.part.Range(s)
		sh := &l.shards[s]
		sh.front = graph.MakeFrontier(n)
		sh.ids = make([]graph.NodeID, 0, hi-lo)
		if l.kern == nil {
			sh.chg = make([]bool, hi-lo)
		}
	}
	return l
}

// NewReferenceLockstep wraps p over cfg with the full-scan reference
// engine: every node is evaluated every round, exactly the paper's
// round structure with no scheduling shortcut. It is the oracle the
// metamorphic tests compare the frontier engine against, and the engine
// under StaleLockstep, whose lag draws must see every read in ID order;
// it runs at one shard whatever SetShards says.
func NewReferenceLockstep[S comparable](p core.Protocol[S], cfg core.Config[S]) *Lockstep[S] {
	l := NewShardedLockstep(p, cfg, 1)
	l.fullScan = true
	return l
}

// filterPeers installs f as the peer-read filter of every round until
// filtered is cleared, and binds each shard's filtered reader once, so
// the filtered path allocates nothing per round, however often it is
// switched on and off.
func (l *Lockstep[S]) filterPeers(f func(viewer, nbr graph.NodeID, fresh S) S) {
	l.filtered = true
	for s := range l.shards {
		sh := &l.shards[s]
		sh.fv = filteredViewer[S]{states: l.cfg.States, filter: f}
		sh.filtFn = sh.fv.read
	}
}

// Config exposes the current configuration.
func (l *Lockstep[S]) Config() core.Config[S] { return l.cfg }

// Rounds returns the number of rounds with moves executed so far.
func (l *Lockstep[S]) Rounds() int { return l.rounds }

// Moves returns the total moves executed so far.
func (l *Lockstep[S]) Moves() int { return l.moves }

// Evals returns the node evaluations executed so far, quiet rounds
// included: each round adds its drained frontier, or n for a full round.
func (l *Lockstep[S]) Evals() int { return l.evals }

// FullRounds returns the rounds so far that evaluated every node.
func (l *Lockstep[S]) FullRounds() int { return l.fullRounds }

// DirtyState marks node v's closed neighborhood for re-evaluation after
// an external write to States[v] (a memory-corruption fault, a crash
// resurrection): v's own view changed, and v's state is part of every
// neighbor's view.
func (l *Lockstep[S]) DirtyState(v graph.NodeID) {
	l.dirty(v)
	for _, w := range l.cfg.G.Neighbors(v) {
		l.dirty(w)
	}
}

// dirty marks one node for re-evaluation on its owning shard's frontier.
//
//selfstab:noalloc
func (l *Lockstep[S]) dirty(v graph.NodeID) {
	l.shards[l.part.Owner(v)].front.Add(v)
}

// DirtyView marks node v alone for re-evaluation: its effective view
// changed without any state changing, e.g. a stale-read pin was
// installed on or expired from its peer reads.
func (l *Lockstep[S]) DirtyView(v graph.NodeID) {
	l.dirty(v)
}

// DirtyEdge records the graph version after the caller mutated the
// topology on edge {u,v} and re-dirties exactly the affected closed
// neighborhoods: both endpoints (their neighbor lists changed, and link
// removal may have repaired their states) and the endpoints' current
// neighbors (whose views contain those states). That footprint is exact
// only when {u,v} is the one edit since the executor last synced; if the
// graph moved by more, an earlier edit went unreported and the next
// round evaluates everyone.
func (l *Lockstep[S]) DirtyEdge(u, v graph.NodeID) {
	missed := l.cfg.G.Version()-l.topo > 1
	l.topo = l.cfg.G.Version()
	if missed {
		l.addAll()
		return
	}
	l.DirtyState(u)
	l.DirtyState(v)
}

// Run drives Step from a full round until a round with zero moves or
// until maxRounds rounds with moves have executed.
func (l *Lockstep[S]) Run(maxRounds int) Result {
	return l.RunHook(maxRounds, nil)
}

// RunHook is Run with an observation hook invoked after every round that
// had at least one move, receiving the 1-based round index and the
// post-round configuration. The hook must not mutate the configuration.
//
// Legacy uncancellable entry point: the Background context keeps
// Done() nil so the per-round check costs nothing (see runLoop).
//
//selfstab:ctx-root
func (l *Lockstep[S]) RunHook(maxRounds int, hook func(round int, cfg core.Config[S])) Result {
	res, _ := l.runLoop(context.Background(), maxRounds, true, true, hook)
	return res
}

// RunCtx is Run with cooperative cancellation: the context is checked
// once per round, between rounds, so a cancelled or deadline-expired ctx
// stops the loop at the next round boundary — states are always left at
// a consistent round cut, never mid-install. The returned error is nil
// on normal completion and ctx.Err() when the run was cut short; the
// Result then carries the rounds and moves executed so far with Stable
// false. Before RunCtx existed a Run on a non-stabilizing execution
// (e.g. the paper's four-cycle counterexample under the successor
// policy) was unstoppable from the caller short of killing the process.
func (l *Lockstep[S]) RunCtx(ctx context.Context, maxRounds int) (Result, error) {
	return l.runLoop(ctx, maxRounds, true, true, nil)
}

// ConvergeCtx is RunCtx without the full re-dirty at entry: it trusts
// the frontier to already cover every node whose view changed, which
// holds exactly when all mutations since the last run were reported
// through DirtyState/DirtyEdge/DirtyView (the fault adapters and the
// service layer do this). It also skips the final quiescence probe —
// hitting the round limit reports Stable false, and a subsequent call
// resumes where this one stopped and reports Stable true at the cost of
// one zero-move round: a drain of an empty frontier, or a full round if
// the last round of this call was dense. This makes it
// the natural seam for chunked convergence: run a slice of rounds,
// release locks to serve reads, resume. Chunking cannot change the
// trajectory — each round is a deterministic function of the states, so
// any slicing of the same round sequence lands on the same fixed point.
func (l *Lockstep[S]) ConvergeCtx(ctx context.Context, maxRounds int) (Result, error) {
	return l.runLoop(ctx, maxRounds, false, false, nil)
}

// runLoop is the shared round loop. redirty re-enqueues every node at
// entry (the Run contract); probe runs the O(n) quiescence check when
// the round limit is reached. The ctx check is a nil-channel test plus a
// non-blocking select per round — nothing on the hot path, and
// context.Background() keeps the legacy paths literally free (Done()
// returns nil).
func (l *Lockstep[S]) runLoop(ctx context.Context, maxRounds int, redirty, probe bool, hook func(round int, cfg core.Config[S])) (Result, error) {
	// Re-dirty everything at entry: Run is the boundary at which callers
	// legitimately hand back a configuration they edited freely (e.g.
	// stabilize → churn + normalize states → Run again), so no incremental
	// knowledge survives it. Within the run the frontier shrinks as the
	// execution quiesces — which is where the paper's own convergence
	// analysis says nearly all the full-scan work is wasted.
	if redirty {
		l.addAll()
	}
	done := ctx.Done()
	start := l.rounds
	for l.rounds-start < maxRounds {
		if done != nil {
			select {
			case <-done:
				return Result{Rounds: l.rounds - start, Moves: l.moves, Stable: false}, ctx.Err()
			default:
			}
		}
		if l.Step() == 0 {
			return Result{Rounds: l.rounds - start, Moves: l.moves, Stable: true}, nil
		}
		if hook != nil {
			hook(l.rounds-start, l.cfg)
		}
	}
	stable := false
	if probe {
		// One more probe: the limit-th round may have reached the fixed
		// point.
		stable = l.quiescent()
	}
	return Result{Rounds: l.rounds - start, Moves: l.moves, Stable: stable}, nil
}

// quiescent reports whether no node is privileged, without mutating state.
func (l *Lockstep[S]) quiescent() bool {
	for v := range l.cfg.States {
		if _, m := l.p.Move(l.cfg.View(graph.NodeID(v))); m {
			return false
		}
	}
	return true
}
