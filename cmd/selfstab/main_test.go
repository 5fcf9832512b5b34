package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunLockstepSMM(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-protocol", "smm", "-topology", "path", "-n", "8", "-trials", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "smm on path") {
		t.Fatalf("stdout missing header:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "\n"); got < 3 {
		t.Fatalf("expected header + 2 trial summaries, got:\n%s", out.String())
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-protocol", "nope", "-topology", "path", "-n", "4"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr = %q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "nope") {
		t.Fatalf("stderr = %q, want mention of the bad protocol", errOut.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunTraceAndViz(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	var out, errOut strings.Builder
	code := run([]string{"-protocol", "smi", "-topology", "cycle", "-n", "6",
		"-trace", tracePath, "-viz"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !strings.Contains(string(data), "round") {
		t.Fatalf("trace CSV missing header:\n%s", data)
	}
}

func TestRunDOTOutput(t *testing.T) {
	dir := t.TempDir()
	dotPath := filepath.Join(dir, "m.dot")
	var out, errOut strings.Builder
	code := run([]string{"-protocol", "smm", "-topology", "cycle", "-n", "8", "-dot", dotPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr = %q", code, errOut.String())
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatalf("dot file: %v", err)
	}
	if !strings.Contains(string(data), "graph") {
		t.Fatalf("DOT output missing graph header:\n%s", data)
	}
}

// Out-of-range numeric flags are usage errors, reported before the
// header: a negative lag would panic in the stale executor, a loss of 1
// would report a vacuous "stable" with an empty matching, a jitter of 1
// or more can schedule a beacon at a non-positive interval, and a
// negative n would panic in the graph constructor.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-executor", "stale", "-lag", "-1"}, "-lag"},
		{[]string{"-executor", "beacon", "-loss", "1", "-n", "16"}, "-loss"},
		{[]string{"-executor", "beacon", "-loss", "-0.1"}, "-loss"},
		{[]string{"-executor", "beacon", "-jitter", "1"}, "-jitter"},
		{[]string{"-executor", "beacon", "-jitter", "-0.5"}, "-jitter"},
		{[]string{"-n", "-3"}, "n = -3"},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit code = %d, want 2; stdout = %q", tc.args, code, out.String())
			continue
		}
		if out.Len() != 0 {
			t.Errorf("%v: stdout = %q, want nothing", tc.args, out.String())
		}
		if !strings.Contains(errOut.String(), tc.flag) {
			t.Errorf("%v: stderr = %q, want mention of %s", tc.args, errOut.String(), tc.flag)
		}
	}
}
