package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// dedupWindow bounds the idempotency-key memory per tenant: the oldest
// keys are evicted in arrival order once the window fills, matching the
// at-most-once guarantee clients get for retries within the window.
const dedupWindow = 4096

var (
	errQuarantined = errors.New("tenant quarantined")
	errClosed      = errors.New("tenant closed")
)

// command is one unit of work for a tenant's event loop. The reply
// channel is buffered (capacity 1) so the loop never blocks on a
// handler that gave up waiting. No request context rides along: every
// journaled op runs its whole budget, so a client deadline cannot
// change where the state lands.
type command struct {
	mut   Mutation
	reply chan cmdResult
}

type cmdResult struct {
	Seq       int64
	Duplicate bool
	Rounds    int
	Converged bool
	Legit     bool
	CheckErr  string
	Err       error
}

// TenantStatus is the read model served by GET /v1/tenants/{id}.
type TenantStatus struct {
	ID              string `json:"id"`
	Protocol        string `json:"protocol"`
	N               int    `json:"n"`
	M               int    `json:"m"`
	Seq             int64  `json:"seq"`
	Rounds          int    `json:"rounds"`
	Moves           int    `json:"moves"`
	Converged       bool   `json:"converged"`
	Legit           bool   `json:"legit"`
	CheckError      string `json:"check_error,omitempty"`
	Bound           int    `json:"bound"`
	LastEpochRounds int    `json:"last_epoch_rounds"`
	MaxEpochRounds  int    `json:"max_epoch_rounds"`
	EpochsOverBound int    `json:"epochs_over_bound"`
	Quarantined     string `json:"quarantined,omitempty"`
	QueueLen        int    `json:"queue_len"`
	QueueCap        int    `json:"queue_cap"`
}

// SnapshotView is the read model served by GET .../snapshot: the live
// topology and states, read at a consistent point under the tenant
// lock. tenant.snapshotBody appends it field by field, byte for byte as
// encoding/json writes this struct.
type SnapshotView struct {
	ID              string          `json:"id"`
	Protocol        string          `json:"protocol"`
	Seq             int64           `json:"seq"`
	Converged       bool            `json:"converged"`
	Edges           [][2]int        `json:"edges"`
	States          json.RawMessage `json:"states"`
	Rounds          int             `json:"rounds"`
	Moves           int             `json:"moves"`
	MaxEpochRounds  int             `json:"max_epoch_rounds"`
	EpochsOverBound int             `json:"epochs_over_bound"`
}

// tenant hosts one graph instance behind a single-writer event loop:
// the loop goroutine is the only writer of engine state and the
// journal, handlers are readers via mu, and the bounded cmds channel is
// the backpressure boundary the HTTP layer surfaces as 503.
type tenant struct {
	id string
	// seed is meta.json's seed, from which corruption streams derive.
	seed int64
	dir  string
	// n is the node count and bound the per-epoch round bound, both
	// fixed at creation.
	n         int
	bound     int
	snapEvery int64

	limiter *tokenBucket

	cmds     chan *command
	quit     chan struct{}
	quitOnce sync.Once
	// dead is closed when the event loop has exited (gracefully or by
	// quarantine); handlers select on it to fail fast instead of waiting
	// for a reply that will never come.
	dead chan struct{}

	// svcCtx is the service's kill context: canceling it stops
	// convergence between rounds and makes the loop exit without
	// flushing, simulating a crash for the recovery tier.
	svcCtx context.Context

	mu sync.RWMutex
	// guarded by mu
	eng tenantEngine
	// guarded by mu
	jr *journal
	// guarded by mu
	//selfstab:durable
	//selfstab:owner loop
	seq int64
	// guarded by mu
	//selfstab:owner loop
	roundsTotal int
	// guarded by mu
	//selfstab:owner loop
	movesTotal int
	// guarded by mu
	//selfstab:owner loop
	converged bool
	// guarded by mu
	//selfstab:owner loop
	legit bool
	// guarded by mu
	//selfstab:owner loop
	checkErr string
	// guarded by mu
	//selfstab:owner loop
	lastEpochRounds int
	// guarded by mu
	//selfstab:owner loop
	maxEpochRounds int
	// guarded by mu
	//selfstab:owner loop
	epochsOverBound int
	// guarded by mu
	//selfstab:owner loop
	quarantined string
	// guarded by mu
	//selfstab:durable
	//selfstab:owner loop
	dedup map[string]int64
	// guarded by mu
	//selfstab:durable
	//selfstab:owner loop
	dedupR dedupRing
	// guarded by mu
	//selfstab:owner loop
	batchHist [8]int64

	// membership is the GET .../membership body of the engine generation
	// it names, published by the read that encoded it. Membership is a
	// function of the states alone, so it stays valid until the engine's
	// generation moves on.
	membership atomic.Pointer[genBody]
}

// genBody is a body encoded at one engine generation.
type genBody struct {
	gen  uint64
	body []byte
}

type tenantOptions struct {
	queueDepth int
	snapEvery  int64
	shards     int
	ratePerSec float64
	burst      int
	segBytes   int64
	now        func() time.Time
}

// newTenant builds (or recovers) a tenant from its directory and starts
// its event loop. Recovery is replay: engine from meta, then either the
// latest snapshot or the deterministic init epoch, then every journal
// entry past the snapshot — each with the budget epochBudget gives it,
// as live, landing byte-identical to the uninterrupted run.
//
// Runs strictly before `go t.loop()` spawns the event loop, so it (and
// the recovery helpers it calls) owns the loop's fields pre-spawn.
//
//selfstab:ownedby tenant.loop
func newTenant(svcCtx context.Context, dir string, meta tenantMeta, opts tenantOptions) (*tenant, error) {
	eng, err := newEngine(meta.Protocol, meta.N, meta.Edges, opts.shards)
	if err != nil {
		return nil, err
	}
	jr, entries, err := openJournal(dir, opts.segBytes)
	if err != nil {
		eng.close()
		return nil, err
	}
	t := &tenant{
		id:        meta.ID,
		seed:      meta.Seed,
		dir:       dir,
		n:         meta.N,
		bound:     eng.bound(),
		snapEvery: opts.snapEvery,
		limiter:   newTokenBucket(opts.ratePerSec, opts.burst, opts.now),
		cmds:      make(chan *command, opts.queueDepth),
		quit:      make(chan struct{}),
		dead:      make(chan struct{}),
		svcCtx:    svcCtx,
		eng:       eng,
		jr:        jr,
		dedup:     make(map[string]int64),
	}
	if err := t.recoverFrom(entries, jr.firstSegment()); err != nil {
		t.closeResources()
		return nil, err
	}
	go t.loop()
	return t, nil
}

// recoverFrom replays the tenant to its last acknowledged state. It
// runs before the event loop starts, so there is no contention; the
// helpers it calls still lock, keeping the guarded-field discipline
// uniform.
//
// Replay starts right after the restored seq (or at seq 1) and needs
// every seq from there on: live seqs are contiguous, so a hole means a
// lost or unreadable checkpoint, or lost entries, and replaying around
// it would land on a state no client was acknowledged. firstSeg is the
// journal's oldest segment. Only a checkpoint retires segment 1, so
// without one an empty journal must still start there.
func (t *tenant) recoverFrom(entries []Mutation, firstSeg int64) error {
	snap, haveSnap, err := latestSnapshot(t.dir)
	if err != nil {
		return err
	}
	if !haveSnap && len(entries) == 0 && firstSeg > 1 {
		return fmt.Errorf("journal starts at empty segment %d, and no readable checkpoint covers the compacted ones before it", firstSeg)
	}
	var last int64
	if haveSnap {
		if err := t.restore(snap); err != nil {
			return fmt.Errorf("restore snapshot seq %d: %w", snap.Seq, err)
		}
		last = snap.Seq
	} else {
		// Init epoch: converge the clean starting configuration. This is
		// seq 0 of the deterministic derivation, so it runs the same
		// bounded budget mutations do.
		t.mu.Lock()
		_, err := t.epoch(0, t.bound+1, true)
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	covered := 0
	for covered < len(entries) && entries[covered].Seq <= last {
		covered++
	}
	for _, m := range entries[covered:] {
		if m.Seq != last+1 {
			return fmt.Errorf("replay: journal entry seq %d follows seq %d; a checkpoint or the entries between them are missing or unreadable", m.Seq, last)
		}
		last = m.Seq
		if err := t.replayEntry(m); err != nil {
			return fmt.Errorf("replay seq %d: %w", m.Seq, err)
		}
	}
	return nil
}

// restore reconciles the engine (built from meta's topology and clean
// states) to a checkpoint. A checkpoint holds the topology either as
// its drift from meta.json (added and removed) or, in the earlier
// format, as the whole live edge list (edges). Either is parseable JSON
// from disk, not a value the live path produced: an edge graph.NewEdge
// or setLink would panic on, or a drift meta.json contradicts, fails
// recovery with an error before the engine is touched, as a poisoned
// journal entry does.
//
//selfstab:replay
func (t *tenant) restore(snap tenantSnapshot) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	if snap.Edges != nil {
		err = restoreEdges(t.eng, snap)
	} else {
		err = restoreDrift(t.eng, snap)
	}
	if err != nil {
		return err
	}
	if err := t.eng.decodeStates(snap.States); err != nil {
		return err
	}
	t.seq = snap.Seq
	t.roundsTotal = snap.Rounds
	t.movesTotal = snap.Moves
	t.converged = snap.Converged
	t.lastEpochRounds = snap.LastEpochRounds
	t.maxEpochRounds = snap.MaxEpochRounds
	t.epochsOverBound = snap.EpochsOverBound
	for _, de := range snap.DedupKeys {
		remember(t.dedup, &t.dedupR, de.Key, de.Seq)
	}
	if snap.Converged {
		if err := t.eng.check(true); err != nil {
			t.checkErr = err.Error()
		} else {
			t.legit = true
		}
	}
	return nil
}

// restoreEdges diffs the live topology against an earlier-format
// checkpoint's full edge list.
//
//selfstab:replay
func restoreEdges(eng tenantEngine, snap tenantSnapshot) error {
	if snap.Added != nil || snap.Removed != nil {
		return errors.New("checkpoint holds both edges and a drift")
	}
	n := eng.n()
	want := make(map[graph.Edge]bool, len(snap.Edges))
	for _, p := range snap.Edges {
		if !distinctInRange(p[0], p[1], n) {
			return fmt.Errorf("edge %v needs distinct endpoints in [0, %d)", p, n)
		}
		want[edgeOf(p)] = true
	}
	var gone []graph.Edge
	for u := range n {
		for _, v := range eng.neighbors(graph.NodeID(u)) {
			if e := (graph.Edge{U: graph.NodeID(u), V: v}); e.U < e.V && !want[e] {
				gone = append(gone, e)
			}
		}
	}
	for _, e := range gone {
		eng.setLink(e, false)
	}
	for _, p := range snap.Edges {
		eng.setLink(edgeOf(p), true)
	}
	return nil
}

// restoreDrift applies a checkpoint's drift to the creation topology
// the engine still holds, once both sides check out against it.
//
//selfstab:replay
func restoreDrift(eng tenantEngine, snap tenantSnapshot) error {
	if err := checkDrift(eng, "removed", snap.Removed, true); err != nil {
		return err
	}
	if err := checkDrift(eng, "added", snap.Added, false); err != nil {
		return err
	}
	for _, p := range snap.Removed {
		eng.setLink(edgeOf(p), false)
	}
	for _, p := range snap.Added {
		eng.setLink(edgeOf(p), true)
	}
	return nil
}

// checkDrift validates one side of a drift against the creation
// topology: ascending pairs u < v in range, each of them in meta.json's
// topology exactly when inMeta is set.
func checkDrift(eng tenantEngine, side string, pairs [][2]int, inMeta bool) error {
	n := eng.n()
	for i, p := range pairs {
		if !distinctInRange(p[0], p[1], n) {
			return fmt.Errorf("%s edge %v needs distinct endpoints in [0, %d)", side, p, n)
		}
		if p[0] > p[1] || i > 0 && compareEdges(edgeOf(pairs[i-1]), edgeOf(p)) >= 0 {
			return fmt.Errorf("%s edge %v is out of ascending order", side, p)
		}
		if eng.hasEdge(edgeOf(p)) != inMeta {
			return fmt.Errorf("%s edge %v contradicts meta.json", side, p)
		}
	}
	return nil
}

// edgeOf converts a pair that passed distinctInRange.
func edgeOf(p [2]int) graph.Edge { return graph.NewEdge(graph.NodeID(p[0]), graph.NodeID(p[1])) }

// replayEntry re-applies one journaled mutation during recovery: seq,
// idempotency key, the topology/state change and its epoch.
//
//selfstab:replay
func (t *tenant) replayEntry(m Mutation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A journal line can be complete, well-formed JSON and still encode a
	// mutation the live path would have rejected — a corrupted byte can
	// land inside a JSON string or number without breaking the line
	// framing. Re-validate so a poisoned entry fails recovery with an
	// error instead of panicking mid-replay.
	if err := validateMutation(m, t.eng.n()); err != nil {
		return err
	}
	t.seq = m.Seq
	if m.Key != "" {
		remember(t.dedup, &t.dedupR, m.Key, m.Seq)
	}
	if err := applyMutation(t.eng, m); err != nil {
		return err
	}
	budget, counted := t.epochBudget(m)
	_, err := t.epoch(m.Seq, budget, counted)
	return err
}

// loop is the single writer. Each wakeup gathers a batch from the
// bounded queue and processes it with one group commit per contiguous
// run of journaled ops. It exits on graceful quit (drain queue,
// flush a final checkpoint), service kill (immediately, no flush — the
// journal is already durable), or quarantine after a panic.
func (t *tenant) loop() {
	defer close(t.dead)
	defer t.closeResources()
	for {
		select {
		case <-t.svcCtx.Done():
			return
		case <-t.quit:
			for {
				batch := t.drainQueued()
				if len(batch) == 0 {
					t.flush()
					return
				}
				if !t.handleBatch(batch) {
					return
				}
			}
		case cmd := <-t.cmds:
			if !t.handleBatch(t.gather(cmd)) {
				return
			}
		}
	}
}

// drainQueued empties the bounded queue without blocking.
func (t *tenant) drainQueued() []*command {
	var batch []*command
	for {
		select {
		case cmd := <-t.cmds:
			batch = append(batch, cmd)
		default:
			return batch
		}
	}
}

// gather builds one batch: the command that woke the loop and
// everything already queued behind it. There is no wait for company:
// commands that arrive while a batch commits and applies queue up and
// form the next batch, so under a sustained stream the fsync in flight
// is itself the window, and a lone mutation pays nothing for it.
func (t *tenant) gather(first *command) []*command {
	return append([]*command{first}, t.drainQueued()...)
}

// isBarrier reports whether an op must run alone instead of joining a
// group commit. Only a chaos panic does: it quarantines the tenant
// before prepare and is never journaled, so it waits for the run before
// it to commit and reply rather than strand that run's buffered
// entries.
func isBarrier(op string) bool { return op == OpChaosPanic }

// handleBatch splits a batch into contiguous runs of journaled ops,
// each group-committed by handleRun, and barrier ops, each run alone.
// Commands are replied to strictly in arrival order. Returns false when
// the loop must exit; commands not yet replied to are then covered by
// the closed dead channel.
func (t *tenant) handleBatch(batch []*command) bool {
	for len(batch) > 0 {
		n := 1
		for !isBarrier(batch[0].mut.Op) && n < len(batch) && !isBarrier(batch[n].mut.Op) {
			n++
		}
		if !t.handleRun(batch[:n]) {
			return false
		}
		batch = batch[n:]
	}
	return true
}

// pendingCmd is one command of a group-commit run between its prepare
// (seq assigned, entry buffered) and its apply+reply.
type pendingCmd struct {
	cmd *command
	mut Mutation
	res cmdResult
	// done marks commands resolved at prepare time (duplicates and
	// validation failures): nothing was journaled, reply res as-is.
	done bool
}

// handleRun processes one contiguous run of journaled ops as a group
// commit: every entry is prepared (seq assigned, buffered append), then
// a single fsync makes the whole run durable, and only then is anything
// applied and its epoch run. That keeps the write-ahead invariant
// batch-wide — no op's effect exists in memory before its entry is
// durable — at one fsync per run instead of one per entry. A panic
// anywhere quarantines the tenant: the panic value is recorded, the
// waiting client gets an error, and the loop exits while the daemon
// keeps serving every other tenant. A commit failure quarantines too,
// because a partially flushed buffer would corrupt every later append.
func (t *tenant) handleRun(run []*command) (ok bool) {
	var current *command
	defer func() {
		if r := recover(); r != nil {
			t.setQuarantined(fmt.Sprintf("%v", r))
			if current != nil {
				current.reply <- cmdResult{Err: fmt.Errorf("%w: %v", errQuarantined, r)}
			}
			ok = false
		}
	}()
	pend := make([]pendingCmd, 0, len(run))
	for _, cmd := range run {
		current = cmd
		if cmd.mut.Op == OpChaosPanic {
			// Deliberate crash for the chaos tier, alone in its run (see
			// isBarrier). Never journaled: a replay must recover the
			// tenant, not re-crash it.
			panic("chaos: injected panic via API")
		}
		m := cmd.mut
		res, done := t.prepare(&m)
		pend = append(pend, pendingCmd{cmd: cmd, mut: m, res: res, done: done})
	}
	current = nil
	if err := t.commitBatch(); err != nil {
		t.setQuarantined(fmt.Sprintf("journal commit: %v", err))
		for _, p := range pend {
			p.cmd.reply <- cmdResult{Err: fmt.Errorf("%w: journal commit: %v", errQuarantined, err)}
		}
		return false
	}
	for i := range pend {
		p := &pend[i]
		current = p.cmd
		if p.done {
			p.cmd.reply <- p.res
			continue
		}
		res, err := t.applyEpoch(p.mut)
		if err != nil {
			// Killed mid-epoch: the in-memory state is off the
			// deterministic trajectory and will be discarded; recovery
			// replays the journal. Do not checkpoint.
			p.cmd.reply <- cmdResult{Seq: p.mut.Seq, Err: err}
			return false
		}
		if t.checkpointDue(p.mut.Seq) {
			if err := t.checkpoint(); err != nil {
				res.Err = err
			}
		}
		p.cmd.reply <- res
	}
	return true
}

// prepare assigns the sequence number and buffers the journal entry for
// the op (write-ahead: the caller must commit — fsync — before applying
// it). A converge entry carries its round budget: nothing in it depends
// on how its epoch goes.
func (t *tenant) prepare(m *Mutation) (cmdResult, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.Key != "" {
		if s, dup := t.dedup[m.Key]; dup {
			return cmdResult{Seq: s, Duplicate: true, Converged: t.converged, Legit: t.legit, CheckErr: t.checkErr}, true
		}
	}
	if err := validateMutation(*m, t.eng.n()); err != nil {
		return cmdResult{Err: err}, true
	}
	//lint:ignore walorder seq is assigned before the buffered append so the entry carries it; the append-failure path rolls it back, and commitBatch fsyncs the run before the first apply
	t.seq++
	m.Seq = t.seq
	if m.Op == OpCorrupt {
		// Per-mutation corruption stream: a function of (tenant seed,
		// seq), so replaying the journal redraws identical states.
		m.Seed = core.DeriveSeed(t.seed, []string{"mutation"}, int(m.Seq))
	}
	if err := t.jr.append(*m); err != nil {
		t.seq--
		return cmdResult{Err: err}, true
	}
	if m.Key != "" {
		remember(t.dedup, &t.dedupR, m.Key, m.Seq)
	}
	return cmdResult{Seq: m.Seq}, false
}

// commitBatch makes every entry buffered by the run's prepares durable
// with one fsync — the batch-wide write-ahead point — and folds the
// realized batch size into the histogram. A clean journal commits for
// free, so runs of pure duplicates/rejects cost nothing.
//
//selfstab:journal
func (t *tenant) commitBatch() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.jr.pendingEntries()
	if err := t.jr.commit(); err != nil {
		return err
	}
	if n > 0 {
		t.batchHist[batchBucket(n)]++
	}
	return nil
}

// batchBucket maps a realized batch size onto the varz histogram
// buckets 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
func batchBucket(n int) int {
	b := 0
	for limit := 1; b < 7 && n > limit; b++ {
		limit <<= 1
	}
	return b
}

// applyEpoch applies one prepared entry's topology/state change and
// runs its epoch, holding the lock from the apply to the epoch's
// outcome, so no reader sees the change beside the previous epoch's
// flags. Callers invoke it strictly after commitBatch has fsynced the
// run — the entry is durable before its effect exists in memory.
// prepare validated the mutation, so a failure here means the engine
// and the journal have diverged; quarantine via panic rather than ack.
//
//selfstab:applies
func (t *tenant) applyEpoch(m Mutation) (cmdResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := applyMutation(t.eng, m); err != nil {
		panic(fmt.Sprintf("apply journaled mutation seq %d: %v", m.Seq, err))
	}
	budget, counted := t.epochBudget(m)
	return t.epoch(m.Seq, budget, counted)
}

// epochBudget is the round budget of the epoch after entry m and
// whether that epoch counts toward the bound statistics, one rule for
// the live path and replay. Mutations run bound+1 rounds, counted. A
// converge runs the budget its entry carries, uncounted: the client
// chose it, so it says nothing about the paper's bound. A converge
// entry of the earlier post-hoc format with Stable set ran Rounds
// active rounds and then the quiet round that found the fixed point, so
// it replays with one round more.
func (t *tenant) epochBudget(m Mutation) (budget int, counted bool) {
	switch {
	case m.Op != OpConverge:
		return t.bound + 1, true
	case m.Stable:
		return m.Rounds + 1, false
	default:
		return m.Rounds, false
	}
}

// convergeSlice is how many active rounds an epoch runs per hold of the
// tenant lock.
const convergeSlice = 64

// epoch runs the epoch of seq on a round budget and folds its outcome
// into the tenant counters; budget and counted are epochBudget's. The
// caller holds the lock. Convergence runs in slices
// of convergeSlice rounds, and the lock is released between slices so
// reads stay responsive during long epochs; before each release the
// flags are cleared, so a read between slices sees converged and legit
// false, never the previous epoch's verdict beside half-converged
// states. The sliced trajectory is pinned byte-identical to a one-shot
// run by TestConvergeCtxChunkedMatchesOneShot in internal/sim. The
// legitimacy check scans the whole tenant at checkpoint seqs and
// otherwise only the region the epoch touched. The only error is the
// service's kill, checked between rounds and once more at the end: the
// states may then be off the trajectory, nothing is folded in and
// nothing may be checkpointed.
func (t *tenant) epoch(seq int64, budget int, counted bool) (cmdResult, error) {
	rounds, moves, stable := 0, 0, false
	for rounds < budget && !stable {
		if rounds > 0 {
			t.converged, t.legit, t.checkErr = false, false, ""
			t.mu.Unlock()
			t.mu.Lock()
		}
		r, mv, st, err := t.eng.converge(t.svcCtx, min(convergeSlice, budget-rounds))
		rounds, moves, stable = rounds+r, moves+mv, st
		if err != nil {
			break
		}
	}
	if err := t.svcCtx.Err(); err != nil {
		return cmdResult{}, err
	}
	t.roundsTotal += rounds
	t.movesTotal += moves
	t.lastEpochRounds = rounds
	t.converged = stable
	if counted {
		if rounds > t.maxEpochRounds {
			t.maxEpochRounds = rounds
		}
		if !stable {
			t.epochsOverBound++
		}
	}
	t.legit = false
	t.checkErr = ""
	if stable {
		if err := t.eng.check(t.checkpointDue(seq)); err != nil {
			t.checkErr = err.Error()
		} else {
			t.legit = true
		}
	}
	return cmdResult{Seq: seq, Rounds: rounds, Converged: t.converged, Legit: t.legit, CheckErr: t.checkErr}, nil
}

// checkpointDue reports whether the epoch of seq ends at a checkpoint
// seq (seq 0 is the init epoch's).
func (t *tenant) checkpointDue(seq int64) bool { return t.snapEvery > 0 && seq%t.snapEvery == 0 }

// checkpoint writes a deterministic snapshot of the current
// (mutation-boundary) state, then retires every journal segment the
// snapshot wholly covers. Only the event loop calls it, so nothing
// changes between the encode and the compaction, and readers need not
// wait behind the write and its fsyncs.
func (t *tenant) checkpoint() error {
	seq, body := t.checkpointBody()
	if body == nil {
		return nil
	}
	if err := writeSnapshot(t.dir, seq, body); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Replay now starts from this snapshot: segments whose entries all
	// fall at or before it can never be read again.
	return t.jr.compact(seq)
}

// headLen is room for a body's fixed fields at their widest.
const headLen = 320

// checkpointBody encodes the checkpoint of the current seq, or returns
// a nil body for a quarantined tenant, which must not checkpoint. The
// body is tenantSnapshot's fields in its order, byte for byte as
// json.Marshal writes them, with the topology as its drift from
// meta.json. One buffer sized from n, the drift and the dedup window
// holds it all, so a checkpoint costs O(n + drift) whatever the edge
// count.
func (t *tenant) checkpointBody() (int64, []byte) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.quarantined != "" {
		return 0, nil
	}
	added, removed := t.eng.drift()
	size := headLen + (len(added)+len(removed))*pairLen(t.eng.n()) + t.eng.statesLen()
	for i := range t.dedupR.n {
		size += len(`{"key":"","seq":},`) + len(t.dedupR.at(i).Key) + 20
	}
	b := make([]byte, 0, size)
	b = strconv.AppendInt(append(b, `{"seq":`...), t.seq, 10)
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(t.roundsTotal), 10)
	b = strconv.AppendInt(append(b, `,"moves":`...), int64(t.movesTotal), 10)
	b = strconv.AppendBool(append(b, `,"converged":`...), t.converged)
	b = strconv.AppendInt(append(b, `,"epochs_over_bound":`...), int64(t.epochsOverBound), 10)
	b = strconv.AppendInt(append(b, `,"max_epoch_rounds":`...), int64(t.maxEpochRounds), 10)
	b = strconv.AppendInt(append(b, `,"last_epoch_rounds":`...), int64(t.lastEpochRounds), 10)
	b = appendEdgeList(append(b, `,"added":`...), added)
	b = appendEdgeList(append(b, `,"removed":`...), removed)
	b = t.eng.appendStates(append(b, `,"states":`...))
	// The ring yields the window oldest-first, i.e. ascending seq: live
	// inserts follow seq assignment and restore re-inserts in stored
	// order.
	if t.dedupR.n > 0 {
		b = append(b, `,"dedup_keys":[`...)
		for i := range t.dedupR.n {
			if i > 0 {
				b = append(b, ',')
			}
			de := t.dedupR.at(i)
			b = appendJSONString(append(b, `{"key":`...), de.Key)
			b = strconv.AppendInt(append(b, `,"seq":`...), de.Seq, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return t.seq, append(b, '}')
}

// flush writes a final checkpoint on graceful shutdown, unless a kill
// raced in (a killed tenant's state is mid-epoch and must not be
// checkpointed; the journal already has everything).
func (t *tenant) flush() {
	if t.svcCtx.Err() != nil {
		return
	}
	t.checkpoint()
}

func (t *tenant) closeResources() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jr.close()
	t.eng.close()
}

func (t *tenant) setQuarantined(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.quarantined = reason
}

// close asks the event loop to drain and exit; safe to call repeatedly.
func (t *tenant) close() {
	t.quitOnce.Do(func() { close(t.quit) })
}

// --- reads (any goroutine) ---

func (t *tenant) status() TenantStatus {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TenantStatus{
		ID:              t.id,
		Protocol:        t.eng.protocol(),
		N:               t.eng.n(),
		M:               t.eng.m(),
		Seq:             t.seq,
		Rounds:          t.roundsTotal,
		Moves:           t.movesTotal,
		Converged:       t.converged,
		Legit:           t.legit,
		CheckError:      t.checkErr,
		Bound:           t.bound,
		LastEpochRounds: t.lastEpochRounds,
		MaxEpochRounds:  t.maxEpochRounds,
		EpochsOverBound: t.epochsOverBound,
		Quarantined:     t.quarantined,
		QueueLen:        len(t.cmds),
		QueueCap:        cap(t.cmds),
	}
}

// snapshotBody returns the GET .../snapshot body: SnapshotView's fields
// in its order, byte for byte as writeJSON encodes the struct, trailing
// newline included, in one buffer sized from n and m.
func (t *tenant) snapshotBody() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b := make([]byte, 0, headLen+len(t.id)+t.eng.m()*pairLen(t.eng.n())+t.eng.statesLen())
	b = appendJSONString(append(b, `{"id":`...), t.id)
	b = appendJSONString(append(b, `,"protocol":`...), t.eng.protocol())
	b = strconv.AppendInt(append(b, `,"seq":`...), t.seq, 10)
	b = strconv.AppendBool(append(b, `,"converged":`...), t.converged)
	b = t.eng.appendEdges(append(b, `,"edges":`...))
	b = t.eng.appendStates(append(b, `,"states":`...))
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(t.roundsTotal), 10)
	b = strconv.AppendInt(append(b, `,"moves":`...), int64(t.movesTotal), 10)
	b = strconv.AppendInt(append(b, `,"max_epoch_rounds":`...), int64(t.maxEpochRounds), 10)
	b = strconv.AppendInt(append(b, `,"epochs_over_bound":`...), int64(t.epochsOverBound), 10)
	return append(b, "}\n"...)
}

// membershipBody returns the GET .../membership body: the one
// published for the engine's current generation, or else a fresh
// encode, which it publishes. The read lock keeps the generation from
// moving until the body is published, so a published body is never
// older than the generation it names.
func (t *tenant) membershipBody() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	gen := t.eng.generation()
	if c := t.membership.Load(); c != nil && c.gen == gen {
		return c.body
	}
	body := t.eng.membership()
	t.membership.Store(&genBody{gen, body})
	return body
}

func (t *tenant) node(v int) (NodeInfo, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if v < 0 || v >= t.eng.n() {
		return NodeInfo{}, fmt.Errorf("node %d out of range [0, %d)", v, t.eng.n())
	}
	return t.eng.nodeInfo(graph.NodeID(v)), nil
}

// journalVars snapshots the tenant's journal observability counters for
// varz.
func (t *tenant) journalVars() TenantJournalVars {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := t.jr.stats()
	return TenantJournalVars{
		Appends:           st.appends,
		Fsyncs:            st.fsyncs,
		Batches:           st.commits,
		Segments:          st.segments,
		ReplaySuffixBytes: st.liveBytes,
		BatchSizes:        t.batchHist,
	}
}

// --- mutation mechanics shared by the live path and replay ---

// dedupRing is the fixed-capacity idempotency window: a circular buffer
// that overwrites the oldest entry in place once full, so sustained
// streams reuse one backing array instead of the previous
// evict-front+append slice, which reallocated and kept evicted keys
// reachable through the old backing array.
type dedupRing struct {
	buf []dedupEntry
	// head indexes the oldest entry; entries occupy head..head+n-1 mod
	// len(buf).
	head int
	n    int
}

// push records e, returning the entry it displaced when the window was
// already full.
func (r *dedupRing) push(e dedupEntry) (evicted dedupEntry, full bool) {
	if r.buf == nil {
		r.buf = make([]dedupEntry, dedupWindow)
	}
	if r.n == len(r.buf) {
		evicted = r.buf[r.head]
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
		return evicted, true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
	return dedupEntry{}, false
}

// at returns the i-th oldest entry of the window, for i < n.
func (r *dedupRing) at(i int) dedupEntry { return r.buf[(r.head+i)%len(r.buf)] }

// remember records key→seq in the dedup window, evicting the oldest
// key in place when the ring is full. The caller owns the lock guarding
// both structures and passes them in explicitly.
func remember(dedup map[string]int64, r *dedupRing, key string, seq int64) {
	if old, full := r.push(dedupEntry{Key: key, Seq: seq}); full {
		delete(dedup, old.Key)
	}
	dedup[key] = seq
}

// distinctInRange is the rule every edge must pass before it reaches
// the engine: endpoints u ≠ v, both in [0, n).
func distinctInRange(u, v, n int) bool { return u != v && u >= 0 && u < n && v >= 0 && v < n }

func validateMutation(m Mutation, n int) error {
	inRange := func(v *int) bool { return v != nil && *v >= 0 && *v < n }
	switch m.Op {
	case OpAddEdge, OpRemoveEdge:
		if m.U == nil || m.V == nil || !distinctInRange(*m.U, *m.V, n) {
			return fmt.Errorf("%s needs distinct u, v in [0, %d)", m.Op, n)
		}
	case OpAddNode:
		if !inRange(m.U) {
			return fmt.Errorf("%s needs u in [0, %d)", m.Op, n)
		}
		for _, w := range m.Nodes {
			if w < 0 || w >= n || w == *m.U {
				return fmt.Errorf("%s neighbor %d out of range", m.Op, w)
			}
		}
	case OpRemoveNode:
		if !inRange(m.U) {
			return fmt.Errorf("%s needs u in [0, %d)", m.Op, n)
		}
	case OpCorrupt:
		if len(m.Nodes) == 0 {
			return fmt.Errorf("%s needs a non-empty node list", m.Op)
		}
		for _, w := range m.Nodes {
			if w < 0 || w >= n {
				return fmt.Errorf("%s node %d out of range [0, %d)", m.Op, w, n)
			}
		}
	case OpConverge:
		if m.Rounds < 0 {
			return fmt.Errorf("%s rounds must be >= 0", m.Op)
		}
	case OpChaosPanic:
		// handled before prepare; listed for exhaustiveness
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
	return nil
}

// applyMutation performs the topology/state change for one journal
// entry. Node removal in the fixed-universe graph model means cutting
// every incident link (the node keeps evaluating but sees no
// neighbors); addition re-attaches explicit links.
//
//selfstab:applies
func applyMutation(eng tenantEngine, m Mutation) error {
	switch m.Op {
	case OpAddEdge:
		eng.setLink(graph.NewEdge(graph.NodeID(*m.U), graph.NodeID(*m.V)), true)
	case OpRemoveEdge:
		eng.setLink(graph.NewEdge(graph.NodeID(*m.U), graph.NodeID(*m.V)), false)
	case OpAddNode:
		u := graph.NodeID(*m.U)
		for _, w := range m.Nodes {
			eng.setLink(graph.NewEdge(u, graph.NodeID(w)), true)
		}
	case OpRemoveNode:
		u := graph.NodeID(*m.U)
		nbrs := append([]graph.NodeID(nil), eng.neighbors(u)...)
		for _, w := range nbrs {
			eng.setLink(graph.NewEdge(u, w), false)
		}
	case OpCorrupt:
		nodes := make([]graph.NodeID, len(m.Nodes))
		for i, w := range m.Nodes {
			nodes[i] = graph.NodeID(w)
		}
		eng.corrupt(nodes, m.Seed)
	case OpConverge:
		// no topology/state change; the epoch itself is the effect
	case OpChaosPanic:
		// never journaled, never applied; listed for exhaustiveness
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
	return nil
}
