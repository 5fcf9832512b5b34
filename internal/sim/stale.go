package sim

import (
	"fmt"
	"math/rand"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// StaleLockstep executes a protocol under bounded-staleness views: in
// round t node i observes neighbor j's state from round t - lag, where
// lag is drawn uniformly from [0, MaxLag] per (i, j, t). MaxLag = 0 is
// exactly the synchronous model.
//
// The paper's beacon model never acts on stale data — a node moves only
// after hearing a fresh beacon from every neighbor — so this executor
// probes territory the paper does NOT claim: what if beacons carried
// cached state, or nodes acted on timeout with old tables? Experiment
// E12 measures which of the protocols survive it.
//
// It is the full-scan reference engine with a peer filter that serves
// each read from a ring of past rounds. It must stay a full scan: the
// shared generator is consumed lazily inside every Peer read, so
// skipping a provably inactive node would still shift the random-lag
// stream of every later read and change the execution. Frontier
// scheduling is sound only for executors whose skipped evaluations
// consume no randomness.
type StaleLockstep[S comparable] struct {
	l      *Lockstep[S]
	maxLag int
	past   [][]S // past[k] = states k+1 rounds ago, k in [0, maxLag)
	spare  []S   // the pre-round copy, rotated into past[0] after each round
}

// NewStaleLockstep wraps protocol p over cfg with the given staleness
// bound. The past rounds are seeded with the initial configuration (as
// if the system had been holding it forever).
func NewStaleLockstep[S comparable](p core.Protocol[S], cfg core.Config[S], maxLag int, rng *rand.Rand) *StaleLockstep[S] {
	if maxLag < 0 {
		panic(fmt.Sprintf("sim: NewStaleLockstep: negative lag %d", maxLag))
	}
	s := &StaleLockstep[S]{l: NewReferenceLockstep(p, cfg), maxLag: maxLag}
	if maxLag == 0 {
		return s // every read is fresh and draws nothing: no filter
	}
	s.past = make([][]S, maxLag)
	for k := range s.past {
		s.past[k] = append([]S(nil), cfg.States...)
	}
	s.spare = make([]S, len(cfg.States))
	s.l.filterPeers(func(_, j graph.NodeID, fresh S) S {
		if lag := rng.Intn(maxLag + 1); lag > 0 {
			return s.past[lag-1][j]
		}
		return fresh
	})
	return s
}

// Config exposes the current configuration.
func (s *StaleLockstep[S]) Config() core.Config[S] { return s.l.Config() }

// Rounds returns the number of active rounds executed.
func (s *StaleLockstep[S]) Rounds() int { return s.l.Rounds() }

// Moves returns the total active node evaluations.
func (s *StaleLockstep[S]) Moves() int { return s.l.Moves() }

// Step executes one round with randomly stale views and returns the
// number of active nodes.
func (s *StaleLockstep[S]) Step() int {
	if s.past == nil {
		return s.l.Step()
	}
	copy(s.spare, s.l.cfg.States)
	moved := s.l.Step()
	// The pre-round states become "1 round ago"; the oldest slot is
	// recycled as the next spare.
	oldest := s.past[len(s.past)-1]
	copy(s.past[1:], s.past)
	s.past[0], s.spare = s.spare, oldest
	return moved
}

// Run drives Step until maxLag+1 consecutive quiet rounds (with lagged
// views, a single quiet round does not imply a fixed point: older state
// may still be observed later) or until maxRounds active rounds.
func (s *StaleLockstep[S]) Run(maxRounds int) Result {
	start := s.Rounds()
	quiet := 0
	for s.Rounds()-start < maxRounds {
		if s.Step() == 0 {
			quiet++
			if quiet > s.maxLag {
				return Result{Rounds: s.Rounds() - start, Moves: s.Moves(), Stable: true}
			}
		} else {
			quiet = 0
		}
	}
	return Result{Rounds: s.Rounds() - start, Moves: s.Moves(), Stable: false}
}
