package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: selfstab
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLarge_SMMSparse1024           	       3	    946596 ns/op	    5344 B/op	      26 allocs/op
BenchmarkLarge_SMISparse1024           	       3	    292034 ns/op	    1472 B/op	       9 allocs/op
PASS
ok  	selfstab	0.478s
`

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkFoo-8   \t 300\t  4523 ns/op\t  128 B/op\t  3 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "BenchmarkFoo-8" || b.Iters != 300 || b.NsOp != 4523 || b.BOp != 128 || b.AllocsOp != 3 {
		t.Fatalf("parsed %+v", b)
	}
	if _, ok := parseBenchLine("BenchmarkBare"); ok {
		t.Fatal("accepted result-free line")
	}
}

func TestMergeAppendsRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	var out bytes.Buffer
	if code := run([]string{"-label", "before", "-merge", path}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-label", "after", "-merge", path}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var f File
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 || f.Runs[0].Label != "before" || f.Runs[1].Label != "after" {
		t.Fatalf("runs: %+v", f.Runs)
	}
	if len(f.Runs[1].Benchmarks) != 2 || f.Runs[1].Goos != "linux" || f.Runs[1].CPU == "" {
		t.Fatalf("run: %+v", f.Runs[1])
	}
	// Raw lines stay benchstat-consumable: header first, then results.
	if !strings.HasPrefix(f.Runs[0].Raw[0], "goos:") || !strings.HasPrefix(f.Runs[0].Raw[2], "cpu:") {
		t.Fatalf("raw: %v", f.Runs[0].Raw)
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	var out bytes.Buffer
	if code := run([]string{"-label", "base", "-merge", path}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatal("merge failed")
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Same numbers: no regression.
	out.Reset()
	if code := run([]string{"-diff", path}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatalf("clean diff exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("diff output: %s", out.String())
	}
	// 10x slower: regression reported with non-zero exit.
	slow := strings.ReplaceAll(sampleBench, "946596 ns/op", "9465960 ns/op")
	out.Reset()
	if code := run([]string{"-diff", path}, strings.NewReader(slow), &out, os.Stderr); code != 1 {
		t.Fatalf("regressed diff exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("diff output: %s", out.String())
	}
}

// writeBaseline records sampleBench as the last run of a fresh baseline
// file and returns its path.
func writeBaseline(t *testing.T) string {
	t.Helper()
	return writeBaselineFrom(t, sampleBench)
}

// writeBaselineFrom records the given bench output as the last run of a
// fresh baseline file and returns its path.
func writeBaselineFrom(t *testing.T, bench string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	var out bytes.Buffer
	if code := run([]string{"-label", "base", "-merge", path}, strings.NewReader(bench), &out, os.Stderr); code != 0 {
		t.Fatal("merge failed")
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateThreshold(t *testing.T) {
	path := writeBaseline(t)
	// Identical numbers pass.
	var out bytes.Buffer
	if code := run([]string{"-gate", path}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatalf("clean gate exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "gate passed") {
		t.Fatalf("gate output: %s", out.String())
	}
	// +8% stays under the 10% default.
	under := strings.ReplaceAll(sampleBench, "946596 ns/op", "1022324 ns/op")
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(under), &out, os.Stderr); code != 0 {
		t.Fatalf("+8%% gate exited %d: %s", code, out.String())
	}
	// +12% fails.
	over := strings.ReplaceAll(sampleBench, "946596 ns/op", "1060187 ns/op")
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(over), &out, os.Stderr); code != 1 {
		t.Fatalf("+12%% gate exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "GATE FAILED") || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("gate output: %s", out.String())
	}
	// An explicit -threshold overrides the gate default.
	out.Reset()
	if code := run([]string{"-gate", path, "-threshold", "1.5"}, strings.NewReader(over), &out, os.Stderr); code != 0 {
		t.Fatalf("loose-threshold gate exited %d: %s", code, out.String())
	}
}

func TestGatePinFilter(t *testing.T) {
	path := writeBaseline(t)
	// A regression outside the pinned set is reported but does not fail.
	over := strings.ReplaceAll(sampleBench, "946596 ns/op", "9465960 ns/op") // SMMSparse regresses 10x
	var out bytes.Buffer
	if code := run([]string{"-gate", path, "-pin", "SMISparse"}, strings.NewReader(over), &out, os.Stderr); code != 0 {
		t.Fatalf("unpinned regression exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "(regressed, unpinned)") {
		t.Fatalf("gate output: %s", out.String())
	}
	// The same regression inside the pinned set fails.
	out.Reset()
	if code := run([]string{"-gate", path, "-pin", "SMMSparse"}, strings.NewReader(over), &out, os.Stderr); code != 1 {
		t.Fatalf("pinned regression exited %d: %s", code, out.String())
	}
	// A bad pin regexp is a usage error, not a pass.
	out.Reset()
	if code := run([]string{"-gate", path, "-pin", "("}, strings.NewReader(sampleBench), &out, &out); code != 2 {
		t.Fatalf("bad pin exited %d", code)
	}
}

func TestGateAllocsZeroBaseline(t *testing.T) {
	// A 0-alloc baseline is a structural claim: ANY allocs/op increase
	// fails the gate even when ns/op is unchanged.
	zero := strings.ReplaceAll(sampleBench, "26 allocs/op", "0 allocs/op")
	path := writeBaselineFrom(t, zero)
	var out bytes.Buffer
	if code := run([]string{"-gate", path}, strings.NewReader(zero), &out, os.Stderr); code != 0 {
		t.Fatalf("clean 0-alloc gate exited %d: %s", code, out.String())
	}
	leak := strings.ReplaceAll(zero, "0 allocs/op", "1 allocs/op")
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(leak), &out, os.Stderr); code != 1 {
		t.Fatalf("0→1 allocs gate exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (allocs/op)") || !strings.Contains(out.String(), "GATE FAILED") {
		t.Fatalf("gate output: %s", out.String())
	}
}

func TestGateAllocsThreshold(t *testing.T) {
	path := writeBaseline(t)
	// 26 → 28 allocs/op is +7.7%, under the 10% gate default: passes.
	under := strings.ReplaceAll(sampleBench, "26 allocs/op", "28 allocs/op")
	var out bytes.Buffer
	if code := run([]string{"-gate", path}, strings.NewReader(under), &out, os.Stderr); code != 0 {
		t.Fatalf("+8%% allocs gate exited %d: %s", code, out.String())
	}
	// 26 → 30 is +15%: fails even with ns/op flat.
	over := strings.ReplaceAll(sampleBench, "26 allocs/op", "30 allocs/op")
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(over), &out, os.Stderr); code != 1 {
		t.Fatalf("+15%% allocs gate exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (allocs/op)") {
		t.Fatalf("gate output: %s", out.String())
	}
	// The pin filter applies to allocs regressions like ns/op ones.
	out.Reset()
	if code := run([]string{"-gate", path, "-pin", "SMISparse"}, strings.NewReader(over), &out, os.Stderr); code != 0 {
		t.Fatalf("unpinned allocs regression exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "(regressed, unpinned)") {
		t.Fatalf("gate output: %s", out.String())
	}
}

func TestGateMissingBaseline(t *testing.T) {
	// No file at all: pass with a bootstrap notice.
	var out bytes.Buffer
	missing := filepath.Join(t.TempDir(), "nope.json")
	if code := run([]string{"-gate", missing}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatalf("missing baseline exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "bootstraps") {
		t.Fatalf("gate output: %s", out.String())
	}
	// Present but empty (zero runs): same bootstrap pass.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-gate", empty}, strings.NewReader(sampleBench), &out, os.Stderr); code != 0 {
		t.Fatalf("empty baseline exited %d: %s", code, out.String())
	}
	// Corrupt baseline is a hard error — the gate must not silently pass.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"runs":`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-gate", bad}, strings.NewReader(sampleBench), &out, &out); code != 2 {
		t.Fatalf("corrupt baseline exited %d: %s", code, out.String())
	}
}

func TestGateNewAndMissingBenchmarks(t *testing.T) {
	path := writeBaseline(t)
	// A benchmark absent from the baseline is noted, never failed — and a
	// pinned baseline benchmark missing from the fresh run only warns.
	fresh := strings.ReplaceAll(sampleBench, "BenchmarkLarge_SMMSparse1024", "BenchmarkShard1M_SMMSparse8")
	var out bytes.Buffer
	if code := run([]string{"-gate", path}, strings.NewReader(fresh), &out, os.Stderr); code != 0 {
		t.Fatalf("new benchmark exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "(new)") {
		t.Fatalf("gate output lacks (new): %s", out.String())
	}
	if !strings.Contains(out.String(), "missing from the fresh run") {
		t.Fatalf("gate output lacks missing warning: %s", out.String())
	}
}

func TestNoBenchmarksOnStdin(t *testing.T) {
	var out bytes.Buffer
	if code := run(nil, strings.NewReader("PASS\n"), &out, &out); code != 2 {
		t.Fatalf("exit %d", code)
	}
}

func TestTrendReport(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-trend", "testdata/trend_1.json", "testdata/trend_2.json"},
		strings.NewReader(""), &out, os.Stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "3 benchmark(s) across 3 run(s) in 2 file(s)") {
		t.Fatalf("header wrong:\n%s", got)
	}
	// The frontier benchmark spans both files: 1000 -> 800 (-20%) in
	// trend_1 then 800 -> 1200 (+50%) stepping into trend_2, with the
	// allocs history carried along.
	for _, want := range []string{
		"BenchmarkFrontier_Ring4096",
		` -20.0%`,
		` +50.0%`,
		`trend_2.json[0] "sharded"`,
		"2 allocs/op",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
	// First observation of a series has no delta.
	if !strings.Contains(got, "      -") {
		t.Fatalf("missing delta placeholder for first points:\n%s", got)
	}
	// A benchmark appearing only in the later file still gets a series.
	if !strings.Contains(got, "BenchmarkMillion_Sharded") {
		t.Fatalf("late-appearing benchmark dropped:\n%s", got)
	}
}

func TestTrendGlobsWhenNoArgs(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile("testdata/trend_1.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	var out bytes.Buffer
	if code := run([]string{"-trend"}, strings.NewReader(""), &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BENCH_1.json[1]") {
		t.Fatalf("glob did not pick up BENCH_1.json:\n%s", out.String())
	}
}

// TestTrendEmptyHistory pins the zero-runs edge: files that parse but
// record no runs produce a notice instead of a misleading
// "0 benchmark(s) across 0 run(s)" report, and still exit 0 — the
// trend is a report, never a gate.
func TestTrendEmptyHistory(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "BENCH_empty.json")
	if err := os.WriteFile(empty, []byte(`{"runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-trend", empty}, strings.NewReader(""), &out, &errw); code != 0 {
		t.Fatalf("empty history: exit %d\n%s", code, errw.String())
	}
	if out.Len() != 0 {
		t.Fatalf("empty history wrote a report:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "1 file(s) hold no runs") {
		t.Fatalf("missing empty-history notice: %s", errw.String())
	}
}

// TestTrendSingleEntry pins the one-observation edge: a single run
// yields a series with the "-" delta placeholder and no Δ% row, and a
// zero-ns/op predecessor never divides (the next delta stays "-").
func TestTrendSingleEntry(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "BENCH_single.json")
	body := `{"runs":[{"label":"only","benchmarks":[
		{"name":"BenchmarkOne","ns_op":1000,"b_op":0,"allocs_op":0},
		{"name":"BenchmarkZero","ns_op":0,"b_op":0,"allocs_op":0}]}]}`
	if err := os.WriteFile(single, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-trend", single}, strings.NewReader(""), &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "2 benchmark(s) across 1 run(s) in 1 file(s)") {
		t.Fatalf("header wrong:\n%s", got)
	}
	if !strings.Contains(got, "      -") {
		t.Fatalf("missing delta placeholder:\n%s", got)
	}
	if strings.Contains(got, "%") {
		t.Fatalf("single entry grew a spurious delta row:\n%s", got)
	}

	// A second run whose predecessor recorded 0 ns/op must not divide:
	// BenchmarkZero's second point keeps the placeholder.
	followup := `{"runs":[
		{"label":"only","benchmarks":[{"name":"BenchmarkZero","ns_op":0,"b_op":0,"allocs_op":0}]},
		{"label":"next","benchmarks":[{"name":"BenchmarkZero","ns_op":500,"b_op":0,"allocs_op":0}]}]}`
	if err := os.WriteFile(single, []byte(followup), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-trend", single}, strings.NewReader(""), &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "%") {
		t.Fatalf("zero-ns/op predecessor produced a delta:\n%s", out.String())
	}
}

func TestTrendErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-trend", "testdata/nope.json"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Fatalf("missing file: exit %d", code)
	}
	errw.Reset()
	dir := t.TempDir()
	cwd, _ := os.Getwd()
	os.Chdir(dir)
	defer os.Chdir(cwd)
	if code := run([]string{"-trend"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Fatalf("empty glob: exit %d", code)
	}
	if !strings.Contains(errw.String(), "no baseline files") {
		t.Fatalf("missing empty-glob message: %s", errw.String())
	}
}

// benchWithWork is sampleBench with the engine rows' work counters, as
// b.ReportMetric prints them between ns/op and B/op.
const benchWithWork = `goos: linux
goarch: amd64
pkg: selfstab
BenchmarkShard1M_SMMDisk1-2   	       2	 810303437 ns/op	  11865691 evals/op	        11.00 full_rounds/op	   6169170 moves/op	        31.00 rounds/op	       0 B/op	       0 allocs/op
BenchmarkServiceMutations/depth=8-2   	   42070	     27945 ns/op	         0.2495 fsyncs/op	     35785 mut/s	     698 B/op	       8 allocs/op
PASS
`

func TestParseBenchLineMetrics(t *testing.T) {
	r, err := parseRun(strings.NewReader(benchWithWork), "work")
	if err != nil || len(r.Benchmarks) != 2 {
		t.Fatalf("parsed %+v, %v", r, err)
	}
	smm, svc := r.Benchmarks[0], r.Benchmarks[1]
	want := map[string]float64{"evals/op": 11865691, "full_rounds/op": 11, "moves/op": 6169170, "rounds/op": 31}
	if smm.NsOp != 810303437 || smm.AllocsOp != 0 || len(smm.Metrics) != len(want) {
		t.Fatalf("parsed %+v", smm)
	}
	for unit, v := range want {
		if smm.Metrics[unit] != v {
			t.Fatalf("%s = %v, want %v", unit, smm.Metrics[unit], v)
		}
	}
	if svc.Metrics["fsyncs/op"] != 0.2495 || svc.Metrics["mut/s"] != 35785 || svc.BOp != 698 {
		t.Fatalf("parsed %+v", svc)
	}
	// A row without extra pairs keeps the old JSON shape: no metrics key.
	b, _ := parseBenchLine("BenchmarkFoo-8   \t 300\t  4523 ns/op\t  128 B/op\t  3 allocs/op")
	data, err := json.Marshal(b)
	if err != nil || strings.Contains(string(data), "metrics") {
		t.Fatalf("plain row encodes as %s (%v)", data, err)
	}
}

func TestGateWorkCounters(t *testing.T) {
	path := writeBaselineFrom(t, benchWithWork)
	var out bytes.Buffer
	if code := run([]string{"-gate", path}, strings.NewReader(benchWithWork), &out, os.Stderr); code != 0 {
		t.Fatalf("unchanged counters exited %d: %s", code, out.String())
	}
	// One more round at the same iteration count fails even with ns/op
	// flat, and the output names the counter.
	rise := strings.Replace(benchWithWork, "31.00 rounds/op", "32.00 rounds/op", 1)
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(rise), &out, os.Stderr); code != 1 {
		t.Fatalf("rounds/op rise exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (work) rounds/op 31→32") || !strings.Contains(out.String(), "GATE FAILED") {
		t.Fatalf("gate output: %s", out.String())
	}
	// Fewer moves is a gain, not a failure.
	fall := strings.Replace(benchWithWork, "6169170 moves/op", "6000000 moves/op", 1)
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(fall), &out, os.Stderr); code != 0 {
		t.Fatalf("moves/op fall exited %d: %s", code, out.String())
	}
	// The counters do not depend on b.N, so a rise at another iteration
	// count fails too.
	other := strings.Replace(rise, "-2   	       2	", "-2   	       3	", 1)
	out.Reset()
	if code := run([]string{"-gate", path}, strings.NewReader(other), &out, os.Stderr); code != 1 {
		t.Fatalf("rise at another b.N exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION (work) rounds/op 31→32") || strings.Contains(out.String(), "not compared") {
		t.Fatalf("gate output: %s", out.String())
	}
	// Outside the pin a rise is only reported.
	out.Reset()
	if code := run([]string{"-gate", path, "-pin", "Service"}, strings.NewReader(rise), &out, os.Stderr); code != 0 {
		t.Fatalf("unpinned rise exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "(regressed, unpinned) rounds/op 31→32") {
		t.Fatalf("gate output: %s", out.String())
	}
}

func TestTrendPrintsMetrics(t *testing.T) {
	path := writeBaselineFrom(t, benchWithWork)
	var out bytes.Buffer
	if code := run([]string{"-trend", path}, strings.NewReader(""), &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, want := range []string{
		"11865691 evals/op 11 full_rounds/op 6169170 moves/op 31 rounds/op",
		"0.2495 fsyncs/op 35785 mut/s",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
}
