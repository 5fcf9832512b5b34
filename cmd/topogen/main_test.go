package main

import (
	"strings"
	"testing"

	"selfstab/internal/graph"
)

// The edge list is graph.WriteEdgeList's interchange format behind one
// comment line, so graph.ReadEdgeList reads it back.
func TestRunEdgeList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topology", "cycle", "-n", "6", "-format", "edges"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut.String())
	}
	got := out.String()
	if !strings.HasPrefix(got, "# cycle n=6 m=6\n") {
		t.Fatalf("edge list missing header:\n%s", got)
	}
	if lines := strings.Count(got, "\n"); lines != 8 { // comment + node count + 6 edges
		t.Fatalf("edge list has %d lines, want 8:\n%s", lines, got)
	}
	g, err := graph.ReadEdgeList(strings.NewReader(got))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v\n%s", err, got)
	}
	if !g.Equal(graph.Cycle(6)) {
		t.Fatalf("read back %v, want %v", g, graph.Cycle(6))
	}
}

func TestRunDOTWithOverlay(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topology", "cycle", "-n", "12", "-overlay", "smm", "-format", "dot"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "SMM") {
		t.Fatalf("DOT output missing overlay name:\n%s", got)
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	gen := func() string {
		var out strings.Builder
		if code := run([]string{"-topology", "gnp", "-n", "16", "-seed", "7", "-format", "edges"}, &out, new(strings.Builder)); code != 0 {
			t.Fatalf("run failed: %d", code)
		}
		return out.String()
	}
	if gen() != gen() {
		t.Fatal("same seed produced different edge lists")
	}
}

func TestRunBadFormat(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topology", "path", "-n", "4", "-format", "yaml"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown format") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

func TestRunBadOverlay(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-overlay", "tree"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
