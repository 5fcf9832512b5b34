package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/verify"
)

func TestStaleLockstepZeroLagMatchesLockstep(t *testing.T) {
	// With MaxLag = 0 the staleness executor IS the synchronous model:
	// identical trajectories on identical inputs.
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := graph.RandomConnected(15, 0.25, rng)
		p := core.NewSMM()
		cfg1 := core.NewConfig[core.Pointer](g)
		cfg1.Randomize(p, rand.New(rand.NewSource(int64(trial))))
		cfg2 := cfg1.Clone()

		l := NewLockstep[core.Pointer](p, cfg1)
		s := NewStaleLockstep[core.Pointer](p, cfg2, 0, rng)
		for round := 0; round < g.N()+2; round++ {
			m1 := l.Step()
			m2 := s.Step()
			if m1 != m2 {
				t.Fatalf("trial %d round %d: moves %d vs %d", trial, round, m1, m2)
			}
			for v := range cfg1.States {
				if cfg1.States[v] != cfg2.States[v] {
					t.Fatalf("trial %d round %d: node %d diverged", trial, round, v)
				}
			}
			if m1 == 0 {
				break
			}
		}
	}
}

func TestStaleSMMConverges(t *testing.T) {
	for _, lag := range []int{1, 2, 4} {
		for trial := 0; trial < 15; trial++ {
			rng := rand.New(rand.NewSource(int64(100*lag + trial)))
			g := graph.RandomConnected(18, 0.2, rng)
			p := core.NewSMM()
			cfg := core.NewConfig[core.Pointer](g)
			cfg.Randomize(p, rng)
			s := NewStaleLockstep[core.Pointer](p, cfg, lag, rng)
			res := s.Run(300 * (lag + 1))
			if !res.Stable {
				t.Fatalf("lag %d trial %d: %v", lag, trial, res)
			}
			if err := verify.IsMaximalMatching(g, core.MatchingOf(cfg)); err != nil {
				t.Fatalf("lag %d trial %d: %v", lag, trial, err)
			}
		}
	}
}

func TestStaleSMIConverges(t *testing.T) {
	for _, lag := range []int{1, 2, 4} {
		for trial := 0; trial < 15; trial++ {
			rng := rand.New(rand.NewSource(int64(200*lag + trial)))
			g := graph.RandomConnected(18, 0.2, rng)
			p := core.NewSMI()
			cfg := core.NewConfig[bool](g)
			cfg.Randomize(p, rng)
			s := NewStaleLockstep[bool](p, cfg, lag, rng)
			res := s.Run(300 * (lag + 1))
			if !res.Stable {
				t.Fatalf("lag %d trial %d: %v", lag, trial, res)
			}
			if err := verify.IsMaximalIndependentSet(g, core.SetOf(cfg)); err != nil {
				t.Fatalf("lag %d trial %d: %v", lag, trial, err)
			}
		}
	}
}

// Staleness CAN transiently break a matched pair (Lemma 1 does not hold
// under lagged views): node i backs off when it reads a stale j→k. Pin
// this boundary with a deterministic scenario using a fixed lag history.
func TestStaleCanBreakMatchTransiently(t *testing.T) {
	// P3: 0-1-2. History: one round ago 1 pointed at 2; now 0↔1 matched.
	// With lag 1, node 0 may observe the old 1→2 and back off.
	g := graph.Path(3)
	broke := false
	for seed := int64(0); seed < 64 && !broke; seed++ {
		p := core.NewSMM()
		cfg := core.NewConfig[core.Pointer](g)
		cfg.States[0] = core.PointAt(1)
		cfg.States[1] = core.PointAt(0)
		cfg.States[2] = core.Null
		s := NewStaleLockstep[core.Pointer](p, cfg, 1, rand.New(rand.NewSource(seed)))
		// Forge the history: one round ago node 1 pointed at 2. Node 0
		// draws a stale view with probability 1/2 in the first round.
		s.past[0][1] = core.PointAt(2)
		s.Step()
		if cfg.States[0] == core.Null {
			broke = true
			// It must still re-converge to a maximal matching.
			res := s.Run(200)
			if !res.Stable {
				t.Fatalf("seed %d: %v", seed, res)
			}
			if err := verify.IsMaximalMatching(g, core.MatchingOf(cfg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !broke {
		t.Fatal("no seed in 64 produced the stale back-off — Lemma 1 seems to hold under staleness, contradicting the construction")
	}
}

func TestStaleQuietWindow(t *testing.T) {
	// A fixed point must be declared stable only after maxLag+1 quiet
	// rounds; verify Run returns Rounds = 0 on an already-stable config.
	g := graph.Path(2)
	cfg := core.NewConfig[core.Pointer](g)
	cfg.States[0] = core.PointAt(1)
	cfg.States[1] = core.PointAt(0)
	rng := rand.New(rand.NewSource(1))
	s := NewStaleLockstep[core.Pointer](core.NewSMM(), cfg, 3, rng)
	res := s.Run(100)
	if !res.Stable || res.Rounds != 0 || s.Moves() != 0 {
		t.Fatalf("res=%v moves=%d", res, s.Moves())
	}
}

func TestStaleNegativeLagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g := graph.Path(2)
	NewStaleLockstep[bool](core.NewSMI(), core.NewConfig[bool](g), -1, nil)
}

// staleGolden is one pinned stale-executor run: its Result plus an
// FNV-64a hash of the final states.
type staleGolden struct {
	rounds, moves int
	stable        bool
	hash          uint64
}

// runStaleGolden runs p from a random configuration of g under lag-bounded
// views and returns what TestStaleLockstepGoldenTrajectories pins.
func runStaleGolden[S comparable](p core.Protocol[S], g *graph.Graph, lag int, seed int64) staleGolden {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.NewConfig[S](g)
	cfg.Randomize(p, rng)
	res := NewStaleLockstep(p, cfg, lag, rng).Run(300 * (lag + 1))
	h := fnv.New64a()
	fmt.Fprint(h, cfg.States)
	return staleGolden{res.Rounds, res.Moves, res.Stable, h.Sum64()}
}

// TestStaleLockstepGoldenTrajectories pins whole stale-view executions
// bit for bit. The lag generator is drawn once per Peer read, in the
// reference engine's read order, so any change to when or how often a
// lag is drawn — one lag per viewer per round, a skipped evaluation, a
// reordered scan — shifts the stream and moves these numbers.
func TestStaleLockstepGoldenTrajectories(t *testing.T) {
	cases := []struct {
		proto string
		lag   int
		seed  int64
		want  staleGolden
	}{
		{"smm", 1, 1, staleGolden{10, 107, true, 0xf9eb6ac76444dcf8}},
		{"smm", 1, 2, staleGolden{8, 78, true, 0x6c26b82b88001b6f}},
		{"smm", 1, 3, staleGolden{9, 70, true, 0x49152d9daab92c8c}},
		{"smm", 2, 1, staleGolden{11, 81, true, 0xa29e8f4acccee8a8}},
		{"smm", 2, 2, staleGolden{10, 63, true, 0xc83d2620085940e}},
		{"smm", 2, 3, staleGolden{16, 109, true, 0x677666df582fa9a9}},
		{"smm", 4, 1, staleGolden{25, 162, true, 0x276a5acf64e56331}},
		{"smm", 4, 2, staleGolden{11, 55, true, 0x6b9879c0451975d9}},
		{"smm", 4, 3, staleGolden{19, 146, true, 0x935c923150d2c58b}},
		{"smi", 1, 1, staleGolden{4, 22, true, 0x836bdb5a753d5ac8}},
		{"smi", 1, 2, staleGolden{5, 22, true, 0x88202e5b77c0af90}},
		{"smi", 1, 3, staleGolden{5, 27, true, 0x51bd4b1d6c45f7e3}},
		{"smi", 2, 1, staleGolden{8, 23, true, 0x836bdb5a753d5ac8}},
		{"smi", 2, 2, staleGolden{8, 19, true, 0x88202e5b77c0af90}},
		{"smi", 2, 3, staleGolden{5, 27, true, 0x51bd4b1d6c45f7e3}},
		{"smi", 4, 1, staleGolden{4, 13, true, 0x836bdb5a753d5ac8}},
		{"smi", 4, 2, staleGolden{9, 30, true, 0x88202e5b77c0af90}},
		{"smi", 4, 3, staleGolden{15, 62, true, 0x51bd4b1d6c45f7e3}},
	}
	for _, c := range cases {
		g := graph.RandomConnected(24, 0.2, rand.New(rand.NewSource(c.seed)))
		run := int64(100*c.lag) + c.seed
		var got staleGolden
		if c.proto == "smm" {
			got = runStaleGolden(core.NewSMM(), g, c.lag, run)
		} else {
			got = runStaleGolden(core.NewSMI(), g, c.lag, run)
		}
		if got != c.want {
			t.Errorf("%s lag %d seed %d: got %#v, want %#v", c.proto, c.lag, c.seed, got, c.want)
		}
	}
}
