package noalloc_test

import (
	"path/filepath"
	"testing"

	"selfstab/internal/analysis/linttest"
	"selfstab/internal/analysis/noalloc"
)

func TestNoalloc(t *testing.T) {
	linttest.Run(t, "testdata/src/a", noalloc.New())
}

// TestNoallocCrossPackageFacts proves the fact round-trip: dep's
// allocation summaries (AllocFact) and annotated interface contracts
// (ContractsFact) are computed in dep's own analysis run and must be
// visible as imported facts when app is analyzed — dep.Sum and
// dep.Kernel.Tick are accepted, dep.Grow is flagged, only if the
// round-trip works.
func TestNoallocCrossPackageFacts(t *testing.T) {
	linttest.RunPackages(t, linttest.DirResolver("testdata/src"), []string{"app"}, noalloc.New())
}

// TestNoallocAcceptsHotPaths is the regression pin for the annotated
// zero-alloc hot paths: the frontier/row-store/partition layer, the batch and
// shard kernels, and the round loops must pass with zero diagnostics.
// A new diagnostic here means either a hot path gained a real
// allocation or the analyzer gained a false positive; both need a
// human before the pin moves.
func TestNoallocAcceptsHotPaths(t *testing.T) {
	resolve := linttest.ModuleResolver("selfstab", filepath.Join("..", "..", ".."))
	linttest.RunPackages(t, resolve,
		[]string{
			"selfstab/internal/graph",
			"selfstab/internal/core",
			"selfstab/internal/sim",
		},
		noalloc.New())
}
