// Command selfstablint is the repository's determinism and concurrency
// lint suite: a vet tool bundling the custom analyzers that make the
// determinism contract structural rather than sampled.
//
//	detrand      — threaded randomness and clock-free code in deterministic packages
//	mapiter      — no map-iteration order reaching an output without a canonical sort
//	guarded      — `// guarded by <mu>` field annotations hold
//	purity       — protocol Move rules are pure functions of the local View
//	exhaustive   — switches over enum-like constant sets cover every member
//	lockorder    — the cross-package mutex acquisition order is acyclic
//	noalloc      — //selfstab:noalloc functions perform no heap allocation
//	shardsafe    — core.Kernel commit/mark phases honor shard write ownership
//	walorder     — //selfstab:durable mutations are journal-dominated; snapshots are atomic
//	singlewriter — //selfstab:owner fields are touched only from the owning event loop
//	ctxflow      — ctx threads through request paths; durability errors are consumed
//
// purity, exhaustive, and lockorder are the dataflow tier: purity and
// lockorder run flow-sensitive analyses over internal/analysis/cfg
// control-flow graphs and exchange function summaries and acquisition
// edges between packages through the driver's fact files. noalloc and
// shardsafe are the allocation/shard-isolation tier: noalloc threads
// interprocedural allocation summaries (and annotated interface
// contracts) through the same fact files, and shardsafe runs a
// must-analysis over the CFG proving every state-vector access in a
// shard kernel is derived from the shard's owned batch or the graph's rows.
// walorder, singlewriter, and ctxflow are the service-invariant tier:
// they pin the crash-recovery discipline of internal/service — journal
// append dominates every durable mutation, only the tenant event loop
// touches loop-owned fields, and cancellation and durability errors
// propagate — exchanging durable-field sets, owner sets, and journal
// obligations through the same fact files.
//
// It is not run directly; the go command drives it one package at a
// time:
//
//	go build -o bin/selfstablint ./cmd/selfstablint
//	go vet -vettool=bin/selfstablint ./...
//
// which is what `make lint` does. `make lint-sarif` additionally merges
// per-package findings into a SARIF report for code scanning. See
// docs/STATIC_ANALYSIS.md for the contract, the annotation syntax, and
// the suppression syntax.
package main

import (
	"selfstab/internal/analysis/ctxflow"
	"selfstab/internal/analysis/detrand"
	"selfstab/internal/analysis/exhaustive"
	"selfstab/internal/analysis/guarded"
	"selfstab/internal/analysis/lockorder"
	"selfstab/internal/analysis/mapiter"
	"selfstab/internal/analysis/noalloc"
	"selfstab/internal/analysis/purity"
	"selfstab/internal/analysis/shardsafe"
	"selfstab/internal/analysis/singlewriter"
	"selfstab/internal/analysis/unit"
	"selfstab/internal/analysis/walorder"
)

func main() {
	unit.Main(detrand.New(), mapiter.New(), guarded.New(),
		purity.New(), exhaustive.New(), lockorder.New(),
		noalloc.New(), shardsafe.New(),
		walorder.New(), singlewriter.New(), ctxflow.New())
}
