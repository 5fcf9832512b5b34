package soak

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
)

// quickOptions is a CI-sized campaign covering the whole matrix.
func quickOptions(seed int64) Options {
	return Options{
		Seed:   seed,
		Sizes:  []int{6},
		Trials: 1,
		Events: 4,
	}
}

// TestCampaignDeterministicAcrossWorkers is the determinism acceptance
// check: a fixed seed yields byte-identical reports for any worker
// count, and the healthy protocols pass every cell.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	var want bytes.Buffer
	opt := quickOptions(3)
	opt.Workers = 1
	failures, err := Run(opt, &want)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("healthy campaign failed %d cells:\n%s", failures, want.String())
	}
	for _, workers := range []int{2, 5} {
		var got bytes.Buffer
		opt.Workers = workers
		if _, err := Run(opt, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("workers=%d report differs:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, want.String(), workers, got.String())
		}
	}
}

func TestCampaignSeedChangesReport(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Run(quickOptions(3), &a); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(quickOptions(4), &b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	var buf bytes.Buffer
	for _, opt := range []Options{
		{Protocols: []string{"SMX"}},
		{Models: []string{"quantum"}},
		{Sizes: []int{1}},
	} {
		if _, err := Run(opt, &buf); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

// noRepairSMM is SMM with its dangling-pointer self-repair removed — the
// broken variant the shrinking pipeline must minimize against.
type noRepairSMM struct{ smm *core.SMM }

func (b *noRepairSMM) Name() string { return "SMM-norepair" }

func (b *noRepairSMM) Random(id graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) core.Pointer {
	return b.smm.Random(id, nbrs, rng)
}

func (b *noRepairSMM) Move(v core.View[core.Pointer]) (core.Pointer, bool) {
	if !v.Self.IsNull() {
		present := false
		for _, j := range v.Nbrs {
			if j == v.Self.Node() {
				present = true
				break
			}
		}
		if !present {
			return v.Self, false
		}
	}
	return b.smm.Move(v)
}

// TestFailingCellShrinksAndWritesArtifact drives one cell with the
// broken protocol through the full failure pipeline: detect, shrink,
// write the repro artifact, and verify the artifact's minimized
// schedule still fails on replay.
func TestFailingCellShrinksAndWritesArtifact(t *testing.T) {
	dir := t.TempDir()
	r := &runner{opt: Options{Seed: 11, Events: 6, OutDir: dir, ShrinkRuns: 256}}
	k := cellKey{proto: "SMM", model: "lockstep", n: 8, trial: 0}
	res := runTyped(r, k, func() core.Protocol[core.Pointer] { return &noRepairSMM{smm: core.NewSMM()} }, faults.SMM)

	if !res.report.Failed() {
		t.Fatalf("broken protocol passed the campaign cell: %v", res.report)
	}
	if res.min == nil {
		t.Fatal("failing cell was not shrunk")
	}
	if len(res.min.Events) == 0 || len(res.min.Events) > len(res.sched.Events) {
		t.Fatalf("minimized schedule has %d events (original %d)",
			len(res.min.Events), len(res.sched.Events))
	}
	if res.err != "" {
		t.Fatalf("artifact error: %s", res.err)
	}
	want := filepath.Join(dir, "fail-smm-lockstep-n8-t0.json")
	if res.artifact != want {
		t.Fatalf("artifact path %q, want %q", res.artifact, want)
	}
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	var a Artifact[core.Pointer]
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if a.Protocol != "SMM" || a.Model != "lockstep" || a.N != 8 || a.Graph == nil ||
		len(a.States) != 8 || len(a.Failures) == 0 {
		t.Fatalf("artifact incomplete: %+v", a)
	}

	// The minimized schedule must still fail when replayed from the
	// artifact's own topology and states, under the bound its protocol
	// names.
	p := &noRepairSMM{smm: core.NewSMM()}
	tgt := newTarget("lockstep", p, core.Config[core.Pointer]{G: a.Graph.Clone(), States: a.States}, 0)
	defer tgt.Close()
	rep := faults.RunSchedule[core.Pointer](p, tgt, a.Minimized, faults.SMM)
	if !rep.Failed() {
		t.Fatalf("minimized schedule no longer fails on replay:\n%s", a.Minimized)
	}
	if r.shrinkRuns == 0 {
		t.Fatal("shrink replay counter not advanced")
	}
}

// TestReportMentionsArtifacts pins the failure rendering: a failing
// campaign's report names the minimized events and the artifact path.
func TestReportMentionsArtifacts(t *testing.T) {
	dir := t.TempDir()
	k := cellKey{proto: "SMM", model: "lockstep", n: 8, trial: 0}
	r := &runner{opt: Options{Seed: 11, Events: 6, OutDir: dir, ShrinkRuns: 256}}
	res := runTyped(r, k, func() core.Protocol[core.Pointer] { return &noRepairSMM{smm: core.NewSMM()} }, faults.SMM)
	var buf bytes.Buffer
	if got := render(&buf, r.opt.withDefaults(), []cellResult{res}, r.shrinkRuns); got != 1 {
		t.Fatalf("render counted %d failures, want 1", got)
	}
	out := buf.String()
	for _, want := range []string{"FAIL SMM/lockstep n=8 trial=0:", "minimized to", "artifact: ", "failures: 1 of 1 cells"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
