package harness

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

func TestTableAddRowArity(t *testing.T) {
	tbl := &Table{Cols: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch accepted")
		}
	}()
	tbl.AddRow("only one")
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", Claim: "c", Passed: true,
		Cols:  []string{"col", "value"},
		Notes: []string{"a note"},
	}
	tbl.AddRow("r1", "7")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EX: demo [PASS]", "claim: c", "col", "r1", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	tbl.Passed = false
	sb.Reset()
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "[FAIL]") {
		t.Error("FAIL status not rendered")
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tbl := &Table{ID: "EX", Title: "demo", Claim: "c", Passed: true, Cols: []string{"a"}}
	tbl.AddRow("1")
	var sb strings.Builder
	if err := tbl.RenderMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### EX — demo (**PASS**)", "| a |", "| --- |", "| 1 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{ID: "EX", Cols: []string{"a", "b"}}
	tbl.AddRow("1", "x")
	tbl.AddRow("2", "y")
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,x\n2,y\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 found")
	}
	if len(All()) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(All()))
	}
}

func TestE1Quick(t *testing.T) {
	tbl := E1SMMConvergence(QuickOptions())
	if !tbl.Passed {
		t.Fatal("E1 failed")
	}
	if len(tbl.Rows) != 3*3 { // 3 quick topologies x 3 sizes
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE2Quick(t *testing.T) {
	tbl := E2TypeCensus(QuickOptions())
	if !tbl.Passed {
		t.Fatal("E2 failed")
	}
}

func TestE3Quick(t *testing.T) {
	if !E3MatchingGrowth(QuickOptions()).Passed {
		t.Fatal("E3 failed")
	}
}

func TestE4Quick(t *testing.T) {
	tbl := E4Counterexample(QuickOptions())
	if !tbl.Passed {
		t.Fatal("E4 failed")
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE5Quick(t *testing.T) {
	if !E5SMIConvergence(QuickOptions()).Passed {
		t.Fatal("E5 failed")
	}
}

func TestE6Quick(t *testing.T) {
	tbl := E6SMIWave(QuickOptions())
	if !tbl.Passed {
		t.Fatal("E6 failed")
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE7Quick(t *testing.T) {
	if !E7Baseline(QuickOptions()).Passed {
		t.Fatal("E7 failed")
	}
}

func TestE8Quick(t *testing.T) {
	if !E8Restabilization(QuickOptions()).Passed {
		t.Fatal("E8 failed")
	}
}

func TestE9Quick(t *testing.T) {
	if !E9BeaconModel(QuickOptions()).Passed {
		t.Fatal("E9 failed")
	}
}

func TestE10Quick(t *testing.T) {
	if !E10Extensions(QuickOptions()).Passed {
		t.Fatal("E10 failed")
	}
}

func TestE11Quick(t *testing.T) {
	tbl := E11Exhaustive(QuickOptions())
	if !tbl.Passed {
		var sb strings.Builder
		tbl.Render(&sb)
		t.Fatalf("E11 failed:\n%s", sb.String())
	}
}

func TestE12Quick(t *testing.T) {
	if !E12Staleness(QuickOptions()).Passed {
		t.Fatal("E12 failed")
	}
}

func TestE13Quick(t *testing.T) {
	if !E13RuleCensus(QuickOptions()).Passed {
		t.Fatal("E13 failed")
	}
}

func TestE14Quick(t *testing.T) {
	if !E14AdversarialSearch(QuickOptions()).Passed {
		t.Fatal("E14 failed")
	}
}

func TestE15Quick(t *testing.T) {
	tbl := E15FaultRecovery(QuickOptions())
	if !tbl.Passed {
		var sb strings.Builder
		tbl.Render(&sb)
		t.Fatalf("E15 failed:\n%s", sb.String())
	}
}

// TestWorkersDeterminism is the golden equivalence check of the worker
// pool: every experiment table must render byte-identically whether the
// cells run on 1, 2, or 8 workers, because each (topology, n, trial)
// cell draws from its own derived seed stream.
func TestWorkersDeterminism(t *testing.T) {
	for _, e := range All() {
		var golden string
		for _, w := range []int{1, 2, 8} {
			opt := QuickOptions()
			opt.Workers = w
			var sb strings.Builder
			tbl := e.Run(opt)
			if err := tbl.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				golden = sb.String()
				continue
			}
			if sb.String() != golden {
				t.Errorf("%s: table with Workers=%d differs from Workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
					e.ID, w, golden, w, sb.String())
			}
		}
	}
}

// TestDerivedSeedsDistinct is the regression test for the correlated
// trial seeds the serial harness used (opt.Seed+trial reused the
// identical seed sequence in every (topology, n) cell): derived seeds
// must be unique across cells, and cells sharing a trial index must draw
// distinct initial states.
func TestDerivedSeedsDistinct(t *testing.T) {
	opt := DefaultOptions()
	seen := make(map[int64]string)
	for _, topo := range Topologies() {
		for _, n := range opt.Sizes {
			for trial := -1; trial < 4; trial++ {
				s := DeriveSeed(opt.Seed, "E1", topo.Name, n, trial)
				key := topo.Name + "/" + itoa(n) + "/" + itoa(trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
	// Same trial index, different cells => different initial states.
	g := graph.Path(32)
	randomize := func(expID, topo string, n, trial int) []core.Pointer {
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(core.NewSMM(), rand.New(rand.NewSource(DeriveSeed(opt.Seed, expID, topo, n, trial))))
		return cfg.States
	}
	a := randomize("E1", "path", 8, 0)
	b := randomize("E1", "path", 16, 0)
	c := randomize("E1", "cycle", 8, 0)
	if slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatal("cells with the same trial index drew identical initial states")
	}
}

func TestRunAllQuick(t *testing.T) {
	var sb strings.Builder
	failed, err := RunAll(QuickOptions(), &sb, false)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d experiments failed:\n%s", failed, sb.String())
	}
	for _, id := range []string{"E1", "E5", "E10"} {
		if !strings.Contains(sb.String(), id+":") {
			t.Errorf("output missing %s", id)
		}
	}
}
