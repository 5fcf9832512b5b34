package main

import (
	"path/filepath"
	"testing"

	"selfstab/internal/analysis/ctxflow"
	"selfstab/internal/analysis/detrand"
	"selfstab/internal/analysis/exhaustive"
	"selfstab/internal/analysis/guarded"
	"selfstab/internal/analysis/lint"
	"selfstab/internal/analysis/linttest"
	"selfstab/internal/analysis/lockorder"
	"selfstab/internal/analysis/mapiter"
	"selfstab/internal/analysis/noalloc"
	"selfstab/internal/analysis/purity"
	"selfstab/internal/analysis/shardsafe"
	"selfstab/internal/analysis/singlewriter"
	"selfstab/internal/analysis/walorder"
)

// suite returns the full analyzer bundle this command ships, matching
// main.go's unit.Main registration.
func suite(t *testing.T) []*lint.Analyzer {
	t.Helper()
	return []*lint.Analyzer{
		detrand.New(), mapiter.New(), guarded.New(),
		purity.New(), exhaustive.New(), lockorder.New(),
		noalloc.New(), shardsafe.New(),
		walorder.New(), singlewriter.New(), ctxflow.New(),
	}
}

// TestSuiteAcceptsSchedulerPackages is the regression pin for the
// frontier scheduler and the sharded executor built on it: the full
// analyzer bundle this command ships must report zero diagnostics over
// the packages that work touches — the row-store/frontier/partition layer in
// internal/graph, the batch and shard kernels in internal/core, the
// executors (including the sharded barrier runtime in internal/sim),
// and the fault hooks. A new diagnostic here means either the scheduler
// gained a real determinism or locking hazard, or an analyzer gained a
// false positive; both need a human before the pin moves.
func TestSuiteAcceptsSchedulerPackages(t *testing.T) {
	resolve := linttest.ModuleResolver("selfstab", filepath.Join("..", ".."))
	linttest.RunPackages(t, resolve,
		[]string{
			"selfstab/internal/graph",
			"selfstab/internal/core",
			"selfstab/internal/faults",
			"selfstab/internal/sim",
			"selfstab/internal/beacon",
		},
		suite(t)...)
}

// TestSuiteAcceptsServicePackage pins the selfstabd service layer at
// zero diagnostics under the full bundle. The interesting analyzers
// here are guarded (every mu-guarded tenant field is only touched by
// functions that visibly lock — the single-writer event loop makes the
// lock seams safe, the analyzer makes them auditable), exhaustive
// (every mutation-op switch handles every Op* constant, so adding an op
// without wiring validation/apply/replay fails the lint, not a replay),
// mapiter (every map that reaches a response or a snapshot is drained
// in sorted order, keeping the journal byte-replayable), and the
// service-invariant tier: walorder (the //selfstab:durable fields seq
// and the dedup window are journal-dominated everywhere outside the
// one reasoned //lint:ignore seam in prepare — group commit's
// buffered-append-then-commitBatch shape satisfies W1 structurally,
// since the batch fsync dominates the first apply), singlewriter (the
// //selfstab:owner fields are written only from tenant.loop's call
// graph), and ctxflow (ctx threads through, durability errors are
// consumed). A new diagnostic here means the crash-recovery discipline
// changed; the pin moves only with a reasoned suppression or a fix.
func TestSuiteAcceptsServicePackage(t *testing.T) {
	resolve := linttest.ModuleResolver("selfstab", filepath.Join("..", ".."))
	linttest.RunPackages(t, resolve,
		[]string{"selfstab/internal/service"},
		suite(t)...)
}

// TestSuiteAcceptsCommandPackages pins the binaries that sit on top of
// the service and executor layers: the daemon (a ctxflow scope target —
// its drain context roots at the annotated run function) and the load
// harness. These packages marshal responses and aggregate results from
// maps, so mapiter and detrand are the historical risks here.
func TestSuiteAcceptsCommandPackages(t *testing.T) {
	resolve := linttest.ModuleResolver("selfstab", filepath.Join("..", ".."))
	linttest.RunPackages(t, resolve,
		[]string{
			"selfstab/cmd/selfstabd",
			"selfstab/cmd/stabload",
		},
		suite(t)...)
}
