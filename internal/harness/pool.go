package harness

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// DeriveSeed hashes the run seed together with a cell's coordinates —
// experiment ID, topology (or stream) name, size, and trial index —
// into an independent 64-bit seed. Every (topology, n, trial) cell
// draws from its own stream, so neither the worker count nor the
// scheduling order can change any cell's randomness, and distinct cells
// no longer share the correlated Seed+trial sequence the serial harness
// reused in every (topology, n) cell. Negative trial values name
// auxiliary streams (graph generation, permutations, churn).
func DeriveSeed(seed int64, expID, stream string, n, trial int) int64 {
	return core.DeriveSeed(seed, []string{expID, stream}, n, trial)
}

// cellRand is shorthand for a generator seeded by DeriveSeed.
func cellRand(seed int64, expID, stream string, n, trial int) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, expID, stream, n, trial)))
}

// workers resolves Options.Workers: zero or negative selects all CPUs.
func (opt Options) workers() int {
	if opt.Workers > 0 {
		return opt.Workers
	}
	return runtime.NumCPU()
}

// forEachCell runs body(i) for every i in [0, count) across a pool of
// worker goroutines and waits for completion. Bodies must be mutually
// independent and write only to per-index slots, so the gathered output
// is identical no matter how the pool schedules them.
func forEachCell(workers, count int, body func(i int)) {
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachCell is the exported face of forEachCell, reused by campaign
// runners outside the harness (the soak driver); the same contract
// applies.
func ForEachCell(workers, count int, body func(i int)) {
	forEachCell(workers, count, body)
}

// mapCells fans body over [0, count) and gathers its results in index
// order — the deterministic scatter/gather behind every parallel
// experiment.
func mapCells[T any](workers, count int, body func(i int) T) []T {
	out := make([]T, count)
	forEachCell(workers, count, func(i int) { out[i] = body(i) })
	return out
}

// trialGrid fans body over every (topology, size, trial) cell of the
// sweep and returns results indexed [topoIdx][sizeIdx][trial] plus the
// graphs indexed [topoIdx][sizeIdx]. Graphs are generated serially, one
// per (topology, size), each from its own derived seed; the trial cells
// then spread across the worker pool, each receiving its own derived
// per-cell seed.
func trialGrid[T any](opt Options, expID string,
	body func(topo Topology, g *graph.Graph, n, trial int, seed int64) T) ([][][]T, [][]*graph.Graph) {

	topos := opt.topologies()
	graphs := make([][]*graph.Graph, len(topos))
	out := make([][][]T, len(topos))
	for ti, topo := range topos {
		graphs[ti] = make([]*graph.Graph, len(opt.Sizes))
		out[ti] = make([][]T, len(opt.Sizes))
		for si, n := range opt.Sizes {
			graphs[ti][si] = topo.Gen(n, cellRand(opt.Seed, expID, topo.Name+"/graph", n, -1))
			out[ti][si] = make([]T, opt.Trials)
		}
	}
	total := len(topos) * len(opt.Sizes) * opt.Trials
	forEachCell(opt.workers(), total, func(i int) {
		trial := i % opt.Trials
		si := (i / opt.Trials) % len(opt.Sizes)
		ti := i / (opt.Trials * len(opt.Sizes))
		topo := topos[ti]
		n := opt.Sizes[si]
		out[ti][si][trial] = body(topo, graphs[ti][si], n, trial,
			DeriveSeed(opt.Seed, expID, topo.Name, n, trial))
	})
	return out, graphs
}
