package sim

import (
	"sync/atomic"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// defaultShards, when set above 1, makes every frontier-engine Lockstep
// built by this package (including the fault adapters) run with that
// many shards. It is the sharded analog of referenceScan: the
// metamorphic equivalence tests flip it to replay whole experiment
// tables and soak campaigns at K > 1 and demand byte-identical output.
// Production code picks a shard count explicitly via NewShardedLockstep.
var defaultShards atomic.Int32

// SetShards sets the shard count for executors constructed afterwards
// (already-built executors keep their count); k <= 1 restores the
// single-shard default. Tests must not toggle it while executors are
// being constructed concurrently.
func SetShards(k int) { defaultShards.Store(int32(k)) }

// shardParallelMin is the round-size threshold (drained active nodes,
// estimated from the previous round) below which the engine runs its
// phases inline on the coordinator goroutine instead of dispatching to
// the worker pool. Small or quiescing executions — unit tests, the tail
// of a convergence run — stay free of goroutine and channel traffic;
// the pool is spawned lazily the first time a round clears the
// threshold. It is a variable so the equivalence tests can lower it and
// drive the pooled path under the race detector.
var shardParallelMin = 4096

// denseRoundDiv sets when a round is dense: a round in which at least
// n/denseRoundDiv nodes moved derives no marks, and the next round
// evaluates every node instead (DESIGN.md §7b, "Dense rounds"). Marking
// costs a random read and write per neighbor of each mover; a full
// round is one sequential pass, which wins once movers are this common.
// It is a variable so the equivalence tests can run the engine with
// dense rounds never (0) and after every moving round (any value
// above n).
var denseRoundDiv = 4

// dense reports whether a round that moved `moved` of n nodes is dense.
// It reads nothing else, so every shard count and every run decides
// the same.
//
//selfstab:noalloc
func dense(moved, n int) bool {
	return moved > 0 && denseRoundDiv > 0 && moved >= n/denseRoundDiv
}

// shardReq is one unit of pool work: run one phase for one shard.
type shardReq struct {
	phase int
	shard int
}

// Phases of a round, in order. Each runs for every shard with a barrier
// in between, so a phase never observes another shard's partial work
// from the same phase.
const (
	phaseEval   = iota // drain own range, evaluate into next/moved
	phaseCommit        // install own range's results into states
	phaseMark          // derive re-evaluation marks from post-round states
	phaseAbsorb        // pull marks other shards left in our range
)

// shard is one contiguous node range of the round and everything its
// phases write. Step splits every round into the four phases above
// across the shards; a dense round runs eval and commit only:
//
//   - Eval reads only the frozen pre-round state vector and writes
//     next/moved at owned indices — disjoint across shards.
//   - Commit writes states at owned indices — disjoint.
//   - Mark reads the fully committed post-round vector and writes only
//     the shard's own frontier (at owned nodes and their neighbors).
//   - Absorb moves the marks other shards left inside this shard's
//     range into its frontier — writes land in disjoint ranges across
//     shards, so the merge is race-free and, being commutative flag ORs,
//     order-independent.
//
// Byte-identity with the reference engine follows from the frontier
// argument (DESIGN.md §7b): each shard's frontier, after absorb, covers
// every node in its range whose view changed, so the union drained next
// round is a sound superset of the privileged set, and evaluating a
// non-privileged node is a no-op that consumes no randomness. With one
// shard the absorb phase has nothing to do.
type shard[S comparable] struct {
	// front is the shard's full-length frontier. The shard drains only
	// its own range from it; marks it writes outside that range land on
	// other shards' nodes and are pulled over by the owners during
	// absorb. A round
	// that evaluates everyone is Lockstep.fullRound, not a frontier state.
	front  graph.Frontier
	ids    []graph.NodeID // drain buffer, cap = range size
	chg    []bool         // generic-path change flags, parallel to ids; nil with a kernel
	mv     int            // move count of the round in flight
	chgAny bool           // some state changed in the round in flight

	// fv/filtFn are the shard's filtered peer reader (one per shard so
	// concurrent shards each re-target their own viewer), bound by
	// filterPeers.
	fv     filteredViewer[S]
	filtFn func(graph.NodeID) S
}

// Close releases the worker pool, if one was spawned. It is a no-op on
// single-shard engines and safe to call more than once.
func (l *Lockstep[S]) Close() {
	if l.workCh != nil {
		close(l.workCh)
		l.workCh = nil
	}
}

// addAll schedules a full round: every node of every shard evaluates.
// Pending per-shard marks are discharged — the full round subsumes them.
//
//selfstab:noalloc
func (l *Lockstep[S]) addAll() {
	for s := range l.shards {
		l.shards[s].front.Reset()
	}
	l.fullRound = true
}

// Step runs one synchronous round: every frontier node evaluates its rules
// against the current configuration and all resulting states are
// installed at once, as four barrier-separated shard phases. Non-frontier
// nodes are provably no-ops (their view is unchanged since they last
// evaluated inactive), so the returned move count equals the full
// scan's; the reference engine makes every round a full round. A dense
// round (see dense) skips the mark and absorb phases and makes the next
// round a full one, which evaluates a superset of any frontier. Steady-
// state rounds allocate nothing (pinned by noalloc and the bench gate);
// the suppressed cold paths run only on the first pooled round, or for
// protocols without batch kernels.
//
//selfstab:noalloc
func (l *Lockstep[S]) Step() int {
	if l.cfg.G.Version() != l.topo {
		// Unattributed topology change (mobility churn, a test editing the
		// graph): re-evaluate everyone.
		l.topo = l.cfg.G.Version()
		l.addAll()
	}
	l.roundFull = l.fullRound || l.fullScan
	l.fullRound = false
	est := l.lastActive
	if l.roundFull {
		est = len(l.cfg.States)
	}
	// A pool pays only when there is more than one shard to hand out.
	l.parallel = len(l.shards) > 1 && est >= shardParallelMin

	l.runAll(phaseEval)
	active := 0
	for s := range l.shards {
		active += len(l.shards[s].ids)
	}
	l.lastActive = active
	l.evals += active
	if l.roundFull {
		l.fullRounds++
	}

	l.runAll(phaseCommit)
	moved, anyChg := 0, false
	for s := range l.shards {
		moved += l.shards[s].mv
		anyChg = anyChg || l.shards[s].chgAny
	}
	// Quiet rounds skip the install half entirely: nothing moved and
	// nothing changed, so there are no marks to derive or exchange. A
	// round followed by a full one has no use for its marks either.
	switch {
	case moved == 0 && !anyChg:
	case l.fullScan || dense(moved, len(l.cfg.States)):
		l.fullRound = true
	default:
		l.runAll(phaseMark)
		l.runAll(phaseAbsorb)
	}
	if moved > 0 {
		l.rounds++
		l.moves += moved
	}
	return moved
}

// runAll runs one phase for every shard: inline in ascending shard
// order on small rounds, on the worker pool otherwise. Either way the
// phase fully completes for all shards before runAll returns — that
// barrier is what lets the mark phase read post-round states and the
// absorb phase see every shard's finished marks.
//
//selfstab:noalloc
func (l *Lockstep[S]) runAll(phase int) {
	if !l.parallel {
		for s := range l.shards {
			l.runPhase(phase, s)
		}
		return
	}
	if l.workCh == nil {
		//lint:ignore noalloc one-time lazy pool spawn, amortized over the run
		l.spawnPool()
	}
	l.wg.Add(len(l.shards))
	for s := range l.shards {
		l.workCh <- shardReq{phase: phase, shard: s}
	}
	l.wg.Wait()
}

// spawnPool starts one persistent worker per shard on first parallel use.
func (l *Lockstep[S]) spawnPool() {
	l.workCh = make(chan shardReq)
	for range l.shards {
		go l.worker(l.workCh)
	}
}

// worker takes its channel as an argument rather than reading l.workCh,
// which Close clears.
func (l *Lockstep[S]) worker(work <-chan shardReq) {
	for req := range work {
		l.runPhase(req.phase, req.shard)
		l.wg.Done()
	}
}

// runPhase executes one phase for shard s. See shard for the per-phase
// read/write footprints that make concurrent execution race-free.
//
//selfstab:noalloc
func (l *Lockstep[S]) runPhase(phase, s int) {
	switch phase {
	case phaseEval:
		l.evalShard(s)
	case phaseCommit:
		l.commitShard(s)
	case phaseMark:
		l.markShard(s)
	case phaseAbsorb:
		l.absorbShard(s)
	default:
		panic("sim: unknown shard phase")
	}
}

// evalShard drains shard s's range and evaluates every drained node
// against the frozen pre-round state vector.
//
//selfstab:noalloc
func (l *Lockstep[S]) evalShard(s int) {
	sh := &l.shards[s]
	lo, hi := l.part.Range(s)
	if l.roundFull {
		ids := sh.ids[:0]
		for v := lo; v < hi; v++ {
			//lint:ignore noalloc ids is pre-sized to the range, so append never grows
			ids = append(ids, v)
		}
		sh.ids = ids
		// Discharge stray marks routed in since the full round was
		// scheduled — the full evaluation subsumes them.
		sh.front.Reset()
	} else {
		sh.ids = sh.front.DrainRange(sh.ids, int(lo), int(hi))
	}

	ids, states := sh.ids, l.cfg.States
	if l.kern != nil && !l.filtered {
		l.kern.MoveBatch(ids, l.cfg.G, states, l.next, l.moved)
		return
	}
	pv := l.peerFn
	if l.filtered {
		pv = sh.filtFn
	}
	for _, id := range ids {
		sh.fv.viewer = id // read only by the filtered reader
		//lint:ignore noalloc generic fallback for protocols without batch kernels; the kernel path above is the allocation-free one
		next, m := l.p.Move(core.View[S]{
			ID:   id,
			Self: states[id],
			Nbrs: l.cfg.G.Neighbors(id),
			Peer: pv,
		})
		l.next[id] = next
		l.moved[id] = m
	}
}

// commitShard installs shard s's results into the shared state vector —
// writes land only at owned indices.
//
//selfstab:noalloc
func (l *Lockstep[S]) commitShard(s int) {
	sh := &l.shards[s]
	states := l.cfg.States
	if l.kern != nil {
		sh.mv = l.kern.CommitBatch(sh.ids, states, l.next, l.moved)
		sh.chgAny = sh.mv > 0
		return
	}
	mv, any := 0, false
	for i, id := range sh.ids {
		nx := l.next[id]
		c := nx != states[id]
		sh.chg[i] = c
		if c {
			states[id] = nx
			any = true
		}
		if l.moved[id] {
			mv++
		}
	}
	sh.mv, sh.chgAny = mv, any
}

// markShard derives shard s's re-evaluation marks from the fully
// committed post-round states, writing only its own frontier. The
// generic path marks movers plus the closed neighborhood of every
// changed node: it reads no neighbor states, only structure, so the
// commit/mark split cannot change which nodes it marks.
//
//selfstab:noalloc
func (l *Lockstep[S]) markShard(s int) {
	sh := &l.shards[s]
	f := &sh.front
	g := l.cfg.G
	if l.kern != nil {
		l.kern.MarkBatch(sh.ids, g, l.cfg.States, l.moved, f)
		return
	}
	for i, id := range sh.ids {
		if l.moved[id] {
			f.Add(id)
		}
		if sh.chg[i] {
			f.Add(id)
			for _, w := range g.Neighbors(id) {
				f.Add(w)
			}
		}
	}
}

// absorbShard pulls the marks every other shard left inside shard s's
// range into s's frontier, visiting sources in ascending shard order.
// It scans the whole range of each source's frontier, skipping clean
// words: the partition is ranges only, so no link flip has an index to
// rebuild. Marks are commutative ORs, so the merge order cannot affect
// the drained set — the ascending order is just a fixed convention.
//
//selfstab:noalloc
func (l *Lockstep[S]) absorbShard(s int) {
	mine := &l.shards[s].front
	lo, hi := l.part.Range(s)
	for t := range l.shards {
		if t != s {
			mine.Absorb(&l.shards[t].front, int(lo), int(hi))
		}
	}
}
