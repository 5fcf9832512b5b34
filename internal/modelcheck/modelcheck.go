// Package modelcheck exhaustively verifies deterministic synchronous
// protocols on small graphs: it enumerates EVERY configuration, follows
// the (deterministic) synchronous successor function, and reports the
// exact worst-case stabilization time, every reachable fixed point, and
// any divergence (configurations that cycle forever). On instances small
// enough to enumerate this upgrades the paper's empirical round counts
// to machine-checked exhaustive facts — e.g. "from all 108 states of SMM
// on P5, stabilization takes at most 4 rounds and every fixed point is a
// maximal matching", or "exactly 2 of the 81 states of the
// arbitrary-proposal variant on C4 never stabilize".
//
// The exploration shards the initial-configuration space across a worker
// pool (ExploreWorkers). All shards publish into one shared memo table
// with atomic operations; because a configuration's distance-to-fixpoint
// (or divergence) is a pure function of the configuration, concurrent
// publishes always write the same value, and the final report is derived
// from a deterministic scan of the completed table — so the sharded
// result is byte-identical to the serial one.
//
// Only deterministic protocols may be checked (SMM, SMI, the
// counterexample variant, coloring, the spanning tree): randomized
// protocols have no single successor function.
package modelcheck

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// DomainFunc enumerates the full per-node state space of a protocol:
// every value a node's variable can hold given its neighbor list. It
// must cover every state Random can draw, or the check is not
// exhaustive.
type DomainFunc[S comparable] func(id graph.NodeID, nbrs []graph.NodeID) []S

// Report is the result of an exhaustive exploration.
type Report[S comparable] struct {
	// Configs is the number of configurations explored (the product of
	// the per-node domain sizes).
	Configs uint64
	// FixedPoints is the number of distinct fixed points reachable.
	FixedPoints int
	// MaxRounds is the exact worst-case number of rounds to reach a
	// fixed point, over all non-divergent starting configurations.
	MaxRounds int
	// WorstStart is the lowest-indexed starting configuration attaining
	// MaxRounds.
	WorstStart []S
	// Divergent is the number of configurations from which the protocol
	// NEVER stabilizes (they enter or lead into a cycle).
	Divergent uint64
	// CycleLen is the length of one example cycle (0 when none exists).
	CycleLen int
	// CycleExample is a configuration on that cycle.
	CycleExample []S
}

// String summarizes the report.
func (r *Report[S]) String() string {
	if r.Divergent == 0 {
		return fmt.Sprintf("exhaustive: %d configs, %d fixed points, worst case %d rounds",
			r.Configs, r.FixedPoints, r.MaxRounds)
	}
	return fmt.Sprintf("exhaustive: %d configs, %d divergent (cycle length %d), %d fixed points, worst case %d rounds",
		r.Configs, r.Divergent, r.CycleLen, r.FixedPoints, r.MaxRounds)
}

// space is the indexed configuration space: per-node domains plus the
// encode/decode bijection between configurations and [0, Total).
type space[S comparable] struct {
	g       *graph.Graph
	p       core.Protocol[S]
	domains [][]S
	index   []map[S]uint64
	total   uint64
}

func newSpace[S comparable](p core.Protocol[S], g *graph.Graph, domain DomainFunc[S], maxConfigs uint64) (*space[S], error) {
	n := g.N()
	sp := &space[S]{g: g, p: p, domains: make([][]S, n), index: make([]map[S]uint64, n), total: 1}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		sp.domains[v] = domain(id, g.Neighbors(id))
		if len(sp.domains[v]) == 0 {
			return nil, fmt.Errorf("modelcheck: empty domain for node %d", v)
		}
		sp.index[v] = make(map[S]uint64, len(sp.domains[v]))
		for i, s := range sp.domains[v] {
			if _, dup := sp.index[v][s]; dup {
				return nil, fmt.Errorf("modelcheck: duplicate domain value %v at node %d", s, v)
			}
			sp.index[v][s] = uint64(i)
		}
		if sp.total > maxConfigs/uint64(len(sp.domains[v])) {
			return nil, fmt.Errorf("modelcheck: state space exceeds limit %d", maxConfigs)
		}
		sp.total *= uint64(len(sp.domains[v]))
	}
	return sp, nil
}

func (sp *space[S]) decode(idx uint64, into []S) {
	for v := range sp.domains {
		d := uint64(len(sp.domains[v]))
		into[v] = sp.domains[v][idx%d]
		idx /= d
	}
}

func (sp *space[S]) encode(from []S) (uint64, error) {
	idx := uint64(0)
	mul := uint64(1)
	for v := range sp.domains {
		i, ok := sp.index[v][from[v]]
		if !ok {
			return 0, fmt.Errorf("modelcheck: protocol produced state %v outside node %d's domain", from[v], v)
		}
		idx += i * mul
		mul *= uint64(len(sp.domains[v]))
	}
	return idx, nil
}

func (sp *space[S]) successor(cur []S, into []S) {
	peer := func(j graph.NodeID) S { return cur[j] }
	for v := range sp.domains {
		id := graph.NodeID(v)
		into[v], _ = sp.p.Move(core.View[S]{
			ID:   id,
			Self: cur[v],
			Nbrs: sp.g.Neighbors(id),
			Peer: peer,
		})
	}
}

const (
	memoUnknown   = int32(-2)
	memoDivergent = int32(-1)
)

// memoTable is the shared distance table the shards publish into. A
// slot holds memoUnknown, memoDivergent, or the configuration's exact
// distance to its fixed point; because that value is a pure function of
// the configuration, concurrent publishes always agree, and the table
// needs no locking — only atomic slot access, which the guarded
// analyzer enforces on the annotated field.
type memoTable struct {
	slots []int32 // guarded by atomic
}

func newMemoTable(total uint64) *memoTable {
	// The slice is filled before the table is published to any shard, so
	// plain writes are safe here — and keeping them on the local slice
	// rather than the annotated field keeps the atomic contract total.
	slots := make([]int32, total)
	for i := range slots {
		slots[i] = memoUnknown
	}
	return &memoTable{slots: slots}
}

func (t *memoTable) load(i uint64) int32 {
	return atomic.LoadInt32(&t.slots[i])
}

func (t *memoTable) store(i uint64, v int32) {
	atomic.StoreInt32(&t.slots[i], v)
}

// claim marks slot i resolved with value v if still unknown, reporting
// whether this caller won the publication race.
func (t *memoTable) claim(i uint64, v int32) bool {
	return atomic.CompareAndSwapInt32(&t.slots[i], memoUnknown, v)
}

// failure collects the abort state shared by all shards: the error of
// the lowest-numbered erroring start wins, so the reported failure is
// deterministic no matter which shard trips first.
type failure struct {
	mu       sync.Mutex
	firstErr error  // guarded by mu
	errAt    uint64 // guarded by mu
	stop     atomic.Bool
}

// fail records err for start position at and halts all shards.
func (f *failure) fail(at uint64, err error) {
	f.mu.Lock()
	if f.firstErr == nil || at < f.errAt {
		f.firstErr, f.errAt = err, at
	}
	f.mu.Unlock()
	f.stop.Store(true)
}

func (f *failure) stopped() bool { return f.stop.Load() }

// err returns the winning error after the shards have joined.
func (f *failure) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// Explore enumerates every configuration of p on g with a single worker.
// maxConfigs bounds the state-space size Explore is willing to touch
// (the product of domain sizes); exceeding it returns an error rather
// than thrashing. checkFixed, if non-nil, is invoked once per distinct
// fixed point and its error aborts the exploration — use it to assert
// the paper's predicate (maximal matching, MIS, ...) on every stable
// state.
func Explore[S comparable](p core.Protocol[S], g *graph.Graph, domain DomainFunc[S],
	maxConfigs uint64, checkFixed func([]S) error) (*Report[S], error) {
	return ExploreWorkers(p, g, domain, maxConfigs, checkFixed, 1)
}

// ExploreWorkers is Explore sharded over the initial-configuration
// space: workers goroutines claim chunks of start indices and publish
// resolved distances into a shared atomic memo table. workers <= 0
// selects GOMAXPROCS. The returned report is identical for every worker
// count. checkFixed may be invoked concurrently from several shards (for
// distinct fixed points), so it must be safe for concurrent use.
func ExploreWorkers[S comparable](p core.Protocol[S], g *graph.Graph, domain DomainFunc[S],
	maxConfigs uint64, checkFixed func([]S) error, workers int) (*Report[S], error) {

	n := g.N()
	if n == 0 {
		return &Report[S]{Configs: 1, FixedPoints: 1}, nil
	}
	sp, err := newSpace(p, g, domain, maxConfigs)
	if err != nil {
		return nil, err
	}
	total := sp.total
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if uint64(workers) > total {
		workers = int(total)
	}

	memo := newMemoTable(total)
	fails := new(failure)
	var nextChunk atomic.Uint64
	chunk := total / uint64(workers*8)
	if chunk < 64 {
		chunk = 64
	}

	worker := func() {
		states := make([]S, n)
		next := make([]S, n)
		var path []uint64
		pos := make(map[uint64]int)
		for !fails.stopped() {
			lo := nextChunk.Add(chunk) - chunk
			if lo >= total {
				return
			}
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			for start := lo; start < hi; start++ {
				if fails.stopped() {
					return
				}
				if memo.load(start) != memoUnknown {
					continue
				}
				path = path[:0]
				clear(pos)
				cur := start
				tail := int32(0)
				for {
					path = append(path, cur)
					pos[cur] = len(path) - 1
					sp.decode(cur, states)
					sp.successor(states, next)
					succ, err := sp.encode(next)
					if err != nil {
						fails.fail(start, err)
						return
					}
					if succ == cur {
						// cur is a fixed point; the CAS winner runs the
						// caller's predicate exactly once per fixed point.
						if memo.claim(cur, 0) && checkFixed != nil {
							if err := checkFixed(states); err != nil {
								fails.fail(start, fmt.Errorf("modelcheck: invalid fixed point %v: %w", states, err))
								return
							}
						}
						tail = 0
						path = path[:len(path)-1] // distance 0 already published
						break
					}
					if _, seen := pos[succ]; seen {
						// A cycle within the current path: everything on
						// the path diverges (the cycle plus the prefix
						// leading into it).
						for _, idx := range path {
							memo.store(idx, memoDivergent)
						}
						path = path[:0]
						break
					}
					if m := memo.load(succ); m != memoUnknown {
						if m == memoDivergent {
							for _, idx := range path {
								memo.store(idx, memoDivergent)
							}
							path = path[:0]
						} else {
							tail = m
						}
						break
					}
					cur = succ
				}
				// Backfill distances along the path. Another shard may
				// have published some of these concurrently — with the
				// same values, since a configuration's distance is unique
				// — so unconditional stores are safe.
				for i := len(path) - 1; i >= 0; i-- {
					tail++
					memo.store(path[i], tail)
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	if err := fails.err(); err != nil {
		return nil, err
	}

	// Deterministic merge: the report is a pure function of the finished
	// memo table, independent of which shard resolved what. Reads stay
	// atomic — free on every supported architecture — so the guarded
	// contract holds by construction rather than by barrier reasoning.
	rep := &Report[S]{Configs: total}
	maxR := int32(-1)
	worst := uint64(0)
	for i := uint64(0); i < total; i++ {
		v := memo.load(i)
		if v == memoDivergent {
			rep.Divergent++
			continue
		}
		if v == 0 {
			rep.FixedPoints++
		}
		if v > maxR {
			maxR, worst = v, i
		}
	}
	if maxR >= 0 {
		rep.MaxRounds = int(maxR)
		rep.WorstStart = make([]S, n)
		sp.decode(worst, rep.WorstStart)
	}
	if rep.Divergent > 0 {
		// Walk from the lowest divergent configuration into its cycle —
		// a deterministic choice of example.
		var d uint64
		for i := uint64(0); i < total; i++ {
			if memo.load(i) == memoDivergent {
				d = i
				break
			}
		}
		states := make([]S, n)
		next := make([]S, n)
		pos := make(map[uint64]int)
		cur := d
		for {
			if at, seen := pos[cur]; seen {
				rep.CycleLen = len(pos) - at
				rep.CycleExample = make([]S, n)
				sp.decode(cur, rep.CycleExample)
				break
			}
			pos[cur] = len(pos)
			sp.decode(cur, states)
			sp.successor(states, next)
			cur, _ = sp.encode(next) // already encoded once during exploration
		}
	}
	return rep, nil
}

// SMMDomain enumerates SMM's pointer domain: Null plus every neighbor.
func SMMDomain(_ graph.NodeID, nbrs []graph.NodeID) []core.Pointer {
	out := []core.Pointer{core.Null}
	for _, j := range nbrs {
		out = append(out, core.PointAt(j))
	}
	return out
}

// SMIDomain enumerates SMI's bit domain.
func SMIDomain(_ graph.NodeID, _ []graph.NodeID) []bool {
	return []bool{false, true}
}

// ColoringDomain enumerates colors 0..deg+1 — a superset of every color
// the protocol can produce or that Random draws by default.
func ColoringDomain(_ graph.NodeID, nbrs []graph.NodeID) []int {
	out := make([]int, len(nbrs)+2)
	for i := range out {
		out[i] = i
	}
	return out
}
