package harness

import (
	"math/rand"
	"sync"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/modelcheck"
	"selfstab/internal/sim"
)

// TestConcurrentExecutorsStress is a race-detector target: it drives the
// three concurrent subsystems — the sharded round engine's worker pool,
// the harness worker pool, and the sharded model checker — at the same time,
// each itself multi-threaded, so `go test -race` observes their shared
// state (round barriers, the atomic cell counter, the atomic memo table)
// under contention.
func TestConcurrentExecutorsStress(t *testing.T) {
	var wg sync.WaitGroup

	// 1. A 4-shard engine stepping an SMM instance to stability. At 4096
	// nodes the full first round reaches the pool threshold, so real
	// shard workers run the phases.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(DeriveSeed(1, "race", "sharded", 4096, 0)))
		g := graph.RandomSparseConnected(4096, 8, rng)
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(core.NewSMM(), rng)
		l := sim.NewShardedLockstep[core.Pointer](core.NewSMM(), cfg, 4)
		defer l.Close()
		for i := 0; i < 200 && l.Step() > 0; i++ {
		}
	}()

	// 2. The harness pool fanning cells that mutate per-cell state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sums := mapCells(4, 64, func(i int) int {
			rng := rand.New(rand.NewSource(DeriveSeed(1, "race", "pool", i, 0)))
			g := graph.Path(16)
			cfg := core.NewConfig[bool](g)
			cfg.Randomize(core.NewSMI(), rng)
			l := sim.NewLockstep[bool](core.NewSMI(), cfg)
			l.Run(17)
			return l.Rounds()
		})
		if len(sums) != 64 {
			t.Errorf("pool returned %d results, want 64", len(sums))
		}
	}()

	// 3. The sharded model checker over C8's full configuration space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := graph.Cycle(8)
		rep, err := modelcheck.ExploreWorkers[core.Pointer](core.NewSMM(), g, modelcheck.SMMDomain, 1<<22, nil, 4)
		if err != nil {
			t.Errorf("sharded explore: %v", err)
			return
		}
		if rep.Divergent != 0 {
			t.Errorf("SMM on C8 reported %d divergent configurations", rep.Divergent)
		}
	}()

	wg.Wait()
}
