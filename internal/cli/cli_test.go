package cli

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"selfstab/internal/graph"
)

func TestBuildTopologyAllNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range TopologyNames {
		g, err := BuildTopology(name, 12, 0.2, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() != 12 {
			t.Fatalf("%s: n = %d", name, g.N())
		}
		if err := graph.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := BuildTopology(name, -1, 0.2, rng); err == nil {
			t.Fatalf("%s: n = -1 accepted", name)
		}
		// Tiny instances either exist on exactly n nodes or are refused;
		// none may panic.
		for n := 0; n <= 3; n++ {
			if g, err := BuildTopology(name, n, 0.2, rng); err == nil && g.N() != n {
				t.Fatalf("%s: n = %d built %d nodes", name, n, g.N())
			}
		}
	}
	// gnp's p is a probability; disk's is a starting radius that only
	// grows by a factor, so it must be positive and finite.
	for _, tc := range []struct {
		name string
		p    float64
	}{
		{"gnp", -1}, {"gnp", 2}, {"gnp", math.NaN()},
		{"disk", 0}, {"disk", -0.5}, {"disk", math.NaN()}, {"disk", math.Inf(1)},
	} {
		if _, err := BuildTopology(tc.name, 8, tc.p, rng); err == nil {
			t.Fatalf("%s: p = %v accepted", tc.name, tc.p)
		}
	}
	if _, err := BuildTopology("moebius", 10, 0, rng); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := BuildTopology("cycle", 2, 0, rng); err == nil {
		t.Fatal("tiny cycle accepted")
	}
}

func TestDefaultLimit(t *testing.T) {
	if DefaultLimit("smm", 10) != 14 {
		t.Fatal("smm limit")
	}
	if DefaultLimit("tree", 10) != 60 {
		t.Fatal("tree limit")
	}
	if DefaultLimit("hsuhuang", 10) != 500 {
		t.Fatal("hsuhuang limit")
	}
	if DefaultLimit("refined-hh", 10) != 5000 {
		t.Fatal("fallback limit")
	}
}

func TestRunTrialAllProtocolsLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := BuildTopology("gnp", 16, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range ProtocolNames {
		out, err := RunTrial(g, TrialOptions{Protocol: proto, Executor: "lockstep", Seed: 1}, rng)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		// The arbitrary-proposal variants may legitimately diverge when
		// run synchronously — that is the paper's counterexample.
		divergent := proto == "smm-arbitrary" || proto == "hsuhuang"
		if !divergent && !strings.Contains(out, "stable in") {
			t.Fatalf("%s: unexpected summary %q", proto, out)
		}
		if strings.Contains(out, "INVALID") {
			t.Fatalf("%s: invalid result: %q", proto, out)
		}
	}
	if _, err := RunTrial(g, TrialOptions{Protocol: "nope", Executor: "lockstep"}, rng); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunTrialExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := BuildTopology("gnp", 12, 0.25, rng)
	for _, exec := range ExecutorNames {
		for _, proto := range []string{"smm", "smi"} {
			out, err := RunTrial(g, TrialOptions{Protocol: proto, Executor: exec, Seed: 2, Jitter: 0.1}, rng)
			if err != nil {
				t.Fatalf("%s/%s: %v", proto, exec, err)
			}
			if !strings.Contains(out, "stable") {
				t.Fatalf("%s/%s: %q", proto, exec, out)
			}
		}
	}
	if _, err := RunTrial(g, TrialOptions{Protocol: "smm", Executor: "quantum"}, rng); err == nil {
		t.Fatal("unknown executor accepted")
	}
	if _, err := RunTrial(g, TrialOptions{Protocol: "smi", Executor: "quantum"}, rng); err == nil {
		t.Fatal("unknown executor accepted for smi")
	}
	if _, err := RunTrial(g, TrialOptions{Protocol: "coloring", Executor: "beacon"}, rng); err == nil {
		t.Fatal("lockstep-only protocol accepted on the beacon executor")
	}
}

func TestRunTrialTraceAndViz(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _ := BuildTopology("path", 8, 0, rng)
	var traceOut, vizOut strings.Builder
	_, err := RunTrial(g, TrialOptions{
		Protocol: "smm", Executor: "lockstep", Seed: 1,
		Trace: &traceOut, Viz: &vizOut,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(traceOut.String(), "round,moves,") {
		t.Fatalf("trace CSV header missing: %q", traceOut.String()[:40])
	}
	if !strings.Contains(vizOut.String(), "t=0") {
		t.Fatalf("viz timeline missing: %q", vizOut.String())
	}

	traceOut.Reset()
	vizOut.Reset()
	_, err = RunTrial(g, TrialOptions{
		Protocol: "smi", Executor: "lockstep", Seed: 1,
		Trace: &traceOut, Viz: &vizOut,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(traceOut.String(), "inset") || !strings.Contains(vizOut.String(), "●") {
		t.Fatal("SMI trace/viz missing")
	}
}

func TestRunTrialCounterexampleReportsUnstable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := BuildTopology("cycle", 4, 0, rng)
	// The all-null start only arises with seed-dependent probability via
	// Random; force many rounds and accept either outcome, but the
	// summary must parse.
	out, err := RunTrial(g, TrialOptions{Protocol: "smm-arbitrary", Executor: "lockstep", Seed: 1, MaxRounds: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "seed 1:") {
		t.Fatalf("summary %q", out)
	}
}
