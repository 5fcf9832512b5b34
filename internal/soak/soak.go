// Package soak drives randomized fault-injection campaigns over the
// protocol/executor matrix: for every (protocol, model, size, trial)
// cell it generates a topology, an arbitrary initial configuration and
// a fault schedule from seeds derived off the campaign seed, replays
// the schedule under the recovery monitor, and — when a cell fails —
// shrinks the schedule to a minimal replayable repro and writes it out
// as a JSON artifact.
//
// The campaign is deterministic end to end: cells write only to
// per-index result slots and the report is rendered sequentially
// afterwards, so a fixed seed yields byte-identical reports for any
// worker count.
package soak

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"selfstab/internal/beacon"
	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/harness"
	"selfstab/internal/sim"
)

// edgeP is the extra-edge probability of the cells' random connected
// topologies.
const edgeP = 0.3

// Protocol and model names accepted by Options.
var (
	AllProtocols = []string{"SMM", "SMI"}
	AllModels    = []string{"lockstep", "beacon"}
)

// Options scopes a campaign.
type Options struct {
	// Seed is the campaign seed; every cell derives its own graph,
	// state, schedule and beacon streams from it.
	Seed int64
	// Protocols and Models select the matrix axes (defaults: all).
	Protocols []string
	Models    []string
	// Sizes lists the node counts swept (default {8, 12}).
	Sizes []int
	// Trials is the number of campaigns per (protocol, model, size)
	// cell (default 2).
	Trials int
	// Events is the number of fault events per schedule (default 6).
	Events int
	// Workers sizes the cell pool; 0 or negative selects all CPUs. The
	// report bytes do not depend on it.
	Workers int
	// OutDir, when non-empty, receives one JSON artifact per failing
	// cell holding the topology, initial states, original and minimized
	// schedules, and the violations.
	OutDir string
	// ShrinkRuns budgets schedule replays per failing cell during
	// minimization (default 256).
	ShrinkRuns int
}

func (o Options) withDefaults() Options {
	if len(o.Protocols) == 0 {
		o.Protocols = AllProtocols
	}
	if len(o.Models) == 0 {
		o.Models = AllModels
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{8, 12}
	}
	if o.Trials <= 0 {
		o.Trials = 2
	}
	if o.Events <= 0 {
		o.Events = 6
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.ShrinkRuns <= 0 {
		o.ShrinkRuns = 256
	}
	return o
}

// cellKey names one campaign cell.
type cellKey struct {
	proto, model string
	n, trial     int
}

// cells enumerates the matrix in canonical order: protocol, model,
// size, trial.
func (o Options) cells() []cellKey {
	var keys []cellKey
	for _, p := range o.Protocols {
		for _, m := range o.Models {
			for _, n := range o.Sizes {
				for t := 0; t < o.Trials; t++ {
					keys = append(keys, cellKey{proto: p, model: m, n: n, trial: t})
				}
			}
		}
	}
	return keys
}

// cellResult is one cell's outcome, written to a per-index slot.
type cellResult struct {
	key      cellKey
	report   faults.Report
	sched    faults.Schedule
	min      *faults.Schedule // non-nil when the cell failed and was shrunk
	artifact string           // path of the written repro artifact
	err      string           // infrastructure error (artifact write, …)
}

func (c cellResult) failed() bool { return c.report.Failed() || c.err != "" }

// runner is the shared campaign state.
type runner struct {
	opt Options

	mu sync.Mutex
	// shrinkRuns counts schedule replays spent minimizing failing
	// schedules, summed across all workers. // guarded by mu
	shrinkRuns int
}

func (r *runner) addShrinkRuns(n int) {
	r.mu.Lock()
	r.shrinkRuns += n
	r.mu.Unlock()
}

func (r *runner) totalShrinkRuns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shrinkRuns
}

// Run executes the campaign and renders its report to out, returning
// the number of failing cells. The report contains no wall-clock data
// and cell results are gathered in index order, so for a fixed seed the
// bytes written to out are identical across runs and worker counts.
func Run(opt Options, out io.Writer) (int, error) {
	opt = opt.withDefaults()
	for _, p := range opt.Protocols {
		if p != "SMM" && p != "SMI" {
			return 0, fmt.Errorf("soak: unknown protocol %q (have SMM, SMI)", p)
		}
	}
	for _, m := range opt.Models {
		switch m {
		case "lockstep", "beacon":
		default:
			return 0, fmt.Errorf("soak: unknown model %q (have lockstep, beacon)", m)
		}
	}
	for _, n := range opt.Sizes {
		if n < 2 {
			return 0, fmt.Errorf("soak: size %d too small", n)
		}
	}
	if opt.OutDir != "" {
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return 0, fmt.Errorf("soak: %w", err)
		}
	}
	r := &runner{opt: opt}
	keys := opt.cells()
	results := make([]cellResult, len(keys))
	harness.ForEachCell(opt.Workers, len(keys), func(i int) {
		results[i] = r.runCell(keys[i])
	})
	failures := render(out, opt, results, r.totalShrinkRuns())
	return failures, nil
}

// runCell dispatches on the protocol's state type.
func (r *runner) runCell(k cellKey) cellResult {
	switch k.proto {
	case "SMM":
		return runTyped(r, k, func() core.Protocol[core.Pointer] { return core.NewSMM() }, faults.SMM)
	case "SMI":
		return runTyped(r, k, func() core.Protocol[bool] { return core.NewSMI() }, faults.SMI)
	}
	return cellResult{key: k, err: fmt.Sprintf("unknown protocol %q", k.proto)}
}

// runTyped runs one cell: generate, replay, and on failure shrink and
// write the repro artifact.
func runTyped[S comparable](r *runner, k cellKey, mk func() core.Protocol[S], spec faults.Spec[S]) cellResult {
	opt := r.opt
	seedFor := func(stream string) int64 {
		return harness.DeriveSeed(opt.Seed, "soak", k.proto+"/"+k.model+"/"+stream, k.n, k.trial)
	}
	g := graph.RandomConnected(k.n, edgeP, rand.New(rand.NewSource(seedFor("graph"))))
	sched := faults.Generate(seedFor("sched"), g, faults.GenParams{Events: opt.Events, Start: k.n + 2})
	start := core.NewConfig[S](g)
	start.Randomize(mk(), rand.New(rand.NewSource(seedFor("state"))))
	beaconSeed := seedFor("beacon")

	runOnce := func(s faults.Schedule) faults.Report {
		p := mk()
		t := newTarget(k.model, p, core.Config[S]{G: g.Clone(), States: slices.Clone(start.States)}, beaconSeed)
		defer t.Close()
		return faults.RunSchedule(p, t, s, spec)
	}

	res := cellResult{key: k, sched: sched, report: runOnce(sched)}
	if !res.report.Failed() {
		return res
	}
	runs := 0
	min := faults.Shrink(sched, func(c faults.Schedule) bool {
		runs++
		return runOnce(c).Failed()
	}, opt.ShrinkRuns)
	r.addShrinkRuns(runs)
	res.min = &min
	if opt.OutDir != "" {
		path, err := writeArtifact(opt.OutDir, k, g, start.States, res.report, sched, min)
		if err != nil {
			res.err = err.Error()
		} else {
			res.artifact = path
		}
	}
	return res
}

// newTarget builds the cell's executor over cfg, which must be the
// cell's own copy of the topology and the start states (the engine
// mutates both, and shrinking replays the cell many times).
func newTarget[S comparable](model string, p core.Protocol[S], cfg core.Config[S], beaconSeed int64) faults.Target[S] {
	switch model {
	case "lockstep":
		return sim.NewFaultLockstep(p, cfg)
	case "beacon":
		rng := rand.New(rand.NewSource(beaconSeed))
		return beacon.NewFaultNetwork(p, cfg.G, cfg.States, beacon.DefaultParams(), rng)
	}
	panic("soak: unknown model " + model) // validated in Run
}

// Artifact is the JSON repro written for a failing cell: everything
// needed to replay the failure by hand. The protocol names the epoch
// bound the monitor enforced (faults.SMM or faults.SMI).
type Artifact[S comparable] struct {
	Protocol  string          `json:"protocol"`
	Model     string          `json:"model"`
	N         int             `json:"n"`
	Trial     int             `json:"trial"`
	Graph     *graph.Graph    `json:"graph"`
	States    []S             `json:"states"`
	Schedule  faults.Schedule `json:"schedule"`
	Minimized faults.Schedule `json:"minimized"`
	Failures  []string        `json:"failures"`
}

func writeArtifact[S comparable](dir string, k cellKey, g *graph.Graph, states []S,
	rep faults.Report, sched, min faults.Schedule) (string, error) {

	a := Artifact[S]{
		Protocol: k.proto, Model: k.model, N: k.n, Trial: k.trial,
		Graph: g, States: states, Schedule: sched, Minimized: min, Failures: rep.Failures,
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", fmt.Errorf("artifact %s/%s n=%d t=%d: %w", k.proto, k.model, k.n, k.trial, err)
	}
	name := fmt.Sprintf("fail-%s-%s-n%d-t%d.json",
		strings.ToLower(k.proto), k.model, k.n, k.trial)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("artifact %s: %w", path, err)
	}
	return path, nil
}

// render writes the campaign report sequentially, in cell order, and
// returns the failing-cell count.
func render(out io.Writer, opt Options, results []cellResult, shrinkRuns int) int {
	fmt.Fprintf(out, "soak seed=%d cells=%d protocols=%s models=%s sizes=%s trials=%d events=%d\n",
		opt.Seed, len(results),
		strings.Join(opt.Protocols, ","), strings.Join(opt.Models, ","),
		joinInts(opt.Sizes), opt.Trials, opt.Events)
	fmt.Fprintf(out, "%-5s %-9s %4s %6s %7s %7s %9s %5s %s\n",
		"PROTO", "MODEL", "N", "TRIAL", "EPOCHS", "ROUNDS", "MAXRECOV", "VIOL", "STATUS")
	failures := 0
	for _, res := range results {
		status := "ok"
		if res.failed() {
			failures++
			status = "FAIL"
		}
		fmt.Fprintf(out, "%-5s %-9s %4d %6d %7d %7d %9d %5d %s\n",
			res.key.proto, res.key.model, res.key.n, res.key.trial,
			len(res.report.Epochs), res.report.Rounds,
			res.report.MaxEpochRounds(), res.report.ClosureViolations, status)
	}
	for _, res := range results {
		if !res.failed() {
			continue
		}
		fmt.Fprintf(out, "\nFAIL %s/%s n=%d trial=%d:\n",
			res.key.proto, res.key.model, res.key.n, res.key.trial)
		for _, f := range res.report.Failures {
			fmt.Fprintf(out, "  violation: %s\n", f)
		}
		if res.err != "" {
			fmt.Fprintf(out, "  error: %s\n", res.err)
		}
		if res.min != nil {
			fmt.Fprintf(out, "  minimized to %d event(s):\n", len(res.min.Events))
			for _, ev := range res.min.Events {
				fmt.Fprintf(out, "    %s\n", ev)
			}
		}
		if res.artifact != "" {
			fmt.Fprintf(out, "  artifact: %s\n", res.artifact)
		}
	}
	fmt.Fprintf(out, "\nfailures: %d of %d cells", failures, len(results))
	if shrinkRuns > 0 {
		fmt.Fprintf(out, " (%d shrink replays)", shrinkRuns)
	}
	fmt.Fprintln(out)
	return failures
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
