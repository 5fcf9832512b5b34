// Command benchjson converts `go test -bench` output into the committed
// benchmark baselines (BENCH_1.json, BENCH_2.json, ...) and checks
// fresh runs against them.
//
// The JSON file holds an ordered list of runs, each with the parsed
// ns/op, B/op and allocs/op per benchmark, the row's other `value unit`
// pairs (b.ReportMetric's work counters, fsyncs/op, ...) in a metrics
// map keyed by unit, plus the raw benchfmt lines, so `jq -r
// '.runs[].raw[]' BENCH_2.json | benchstat old.txt -` style pipelines
// keep working: the raw lines are exactly what benchstat consumes.
//
// Modes:
//
//	benchjson -label after -merge BENCH_2.json < bench.txt   # append a run
//	benchjson -diff BENCH_2.json < bench.txt                 # regression warning
//	benchjson -gate base.json -pin '^BenchmarkLarge' < bench.txt  # blocking gate
//	benchjson -trend BENCH_1.json BENCH_2.json               # history report
//	benchjson -trend                                         # ditto, globbing BENCH_*.json
//
// The diff mode compares the fresh run on stdin against the most recent
// run in the file and exits non-zero when any shared benchmark regressed
// by more than -threshold (default 1.25× ns/op) — a loose advisory
// signal for cross-machine baselines.
//
// The gate mode is the blocking CI guard: it fails (exit 1) when any
// benchmark matching -pin regresses by more than -threshold (default
// 1.10× ns/op in this mode) against the baseline's most recent run, or
// regresses on allocs/op — any increase from a 0-alloc baseline (the
// statically pinned steady state of the shard kernels) is a hard fail,
// and a nonzero baseline fails past the same proportional threshold.
// A pinned row also fails when one of its work counters (rounds/op,
// moves/op, evals/op, full_rounds/op) rises at all. The engine rows
// report them per convergence of a fixed set of start configurations,
// so they are deterministic and compare whatever b.N each run settled
// on. Because it is blocking, it is forgiving
// about everything that is not a measured regression: a missing or
// empty baseline passes with a notice (the first run on a runner
// bootstraps the baseline), and benchmarks absent from the baseline
// are reported as new, not failed.
// CI measures the baseline on the same runner in the same job (bench
// main, then bench the candidate), so the ratio compares like with
// like — committed cross-machine baselines stay with -diff.
//
// The trend mode reads nothing from stdin: it walks every run of every
// named baseline file (or all BENCH_*.json in the working directory
// when no files are named) in order and prints, per benchmark, the
// full ns/op trajectory with the step-over-step delta plus the B/op,
// allocs/op and metrics history — the long view the pairwise modes
// cannot give.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	// Metrics holds the line's other value-unit pairs, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// workCounters are the units of the engine rows' deterministic work
// counts, which the gate fails on any rise of.
var workCounters = []string{"rounds/op", "moves/op", "evals/op", "full_rounds/op"}

// Run is one benchmark session.
type Run struct {
	Label      string  `json:"label"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
	// Raw preserves the benchfmt lines (header + results) verbatim for
	// benchstat consumption.
	Raw []string `json:"raw"`
}

// File is the schema of BENCH_1.json.
type File struct {
	Runs []Run `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, in io.Reader, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(errw)
	label := fs.String("label", "run", "label recorded for the new run")
	merge := fs.String("merge", "", "existing JSON file to append the run to (missing file starts fresh)")
	diff := fs.String("diff", "", "JSON baseline to diff the stdin run against instead of emitting JSON")
	gate := fs.String("gate", "", "JSON baseline to gate the stdin run against (blocking mode: exit 1 on pinned regressions)")
	pin := fs.String("pin", ".", "regexp of benchmark names the -gate mode enforces; others are informational")
	threshold := fs.Float64("threshold", 1.25, "ns/op ratio above which a regression is reported (default 1.10 under -gate)")
	trend := fs.Bool("trend", false, "report the per-benchmark history across the named JSON files (default: all BENCH_*.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trend {
		return trendRuns(fs.Args(), out, errw)
	}
	// The two modes want different default strictness: -diff is a loose
	// advisory across machines, -gate a tight same-runner block. Apply
	// the gate default only when the caller did not set -threshold.
	thresholdSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})
	if *gate != "" && !thresholdSet {
		*threshold = 1.10
	}
	newRun, err := parseRun(in, *label)
	if err != nil {
		fmt.Fprintf(errw, "benchjson: %v\n", err)
		return 2
	}
	if len(newRun.Benchmarks) == 0 {
		fmt.Fprintln(errw, "benchjson: no benchmark lines on stdin")
		return 2
	}
	if *gate != "" {
		return gateRuns(*gate, newRun, *threshold, *pin, out, errw)
	}
	if *diff != "" {
		return diffRuns(*diff, newRun, *threshold, out, errw)
	}
	var f File
	if *merge != "" {
		if err := readFile(*merge, &f); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(errw, "benchjson: %v\n", err)
			return 2
		}
	}
	f.Runs = append(f.Runs, newRun)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		fmt.Fprintf(errw, "benchjson: %v\n", err)
		return 2
	}
	return 0
}

func readFile(path string, f *File) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		// A truncated-but-present file (e.g. `foo > BENCH_1.json` racing
		// the read) starts a fresh baseline rather than failing the run.
		return nil
	}
	if err := json.Unmarshal(data, f); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// parseRun reads `go test -bench` output and collects result lines plus
// the goos/goarch/cpu header.
func parseRun(in io.Reader, label string) (Run, error) {
	r := Run{Label: label}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			r.Raw = append(r.Raw, line)
		case strings.HasPrefix(line, "goarch:"):
			r.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			r.Raw = append(r.Raw, line)
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			r.Raw = append(r.Raw, line)
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			r.Benchmarks = append(r.Benchmarks, b)
			r.Raw = append(r.Raw, line)
		}
	}
	return r, sc.Err()
}

// parseBenchLine parses one benchfmt result line, e.g.
//
//	BenchmarkFoo-8   	 300	  4523 ns/op	  31.00 rounds/op	  128 B/op	  3 allocs/op
func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	b := Bench{Name: fields[0]}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b.Iters = iters
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if b.NsOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Bench{}, false
			}
			seen = true
		case "B/op":
			b.BOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			b.AllocsOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, seen
}

// gateRuns is the blocking regression gate: newRun vs the last run in
// path, failing only on pinned benchmarks that regressed past the
// threshold. Missing baselines pass (they bootstrap), new benchmarks
// are noted, and pinned benchmarks that disappeared from the fresh run
// are warned about but do not fail (renames land with their own PR).
func gateRuns(path string, newRun Run, threshold float64, pin string, out, errw io.Writer) int {
	pinRe, err := regexp.Compile(pin)
	if err != nil {
		fmt.Fprintf(errw, "benchjson: -pin: %v\n", err)
		return 2
	}
	var f File
	if err := readFile(path, &f); err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(out, "benchjson gate: no baseline at %s; passing (first run bootstraps the baseline)\n", path)
			return 0
		}
		fmt.Fprintf(errw, "benchjson: %v\n", err)
		return 2
	}
	if len(f.Runs) == 0 {
		fmt.Fprintf(out, "benchjson gate: %s holds no runs; passing (first run bootstraps the baseline)\n", path)
		return 0
	}
	base := f.Runs[len(f.Runs)-1]
	old := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	fmt.Fprintf(out, "benchjson gate vs %q (last run of %s), threshold %.2fx ns/op, pin %q\n", base.Label, path, threshold, pin)
	fmt.Fprintf(out, "%-42s %14s %14s %8s %16s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs old→new")
	regressed := 0
	fresh := make(map[string]bool, len(newRun.Benchmarks))
	for _, nb := range newRun.Benchmarks {
		fresh[nb.Name] = true
		ob, ok := old[nb.Name]
		if !ok {
			fmt.Fprintf(out, "%-42s %14s %14.0f %8s %16s  (new)\n", nb.Name, "-", nb.NsOp, "-", fmt.Sprintf("-→%d", nb.AllocsOp))
			continue
		}
		ratio := 0.0
		if ob.NsOp > 0 {
			ratio = nb.NsOp / ob.NsOp
		}
		// allocs/op is gated alongside ns/op: a 0-alloc baseline is a
		// structural claim (the noalloc analyzer pins it statically), so
		// ANY increase from 0 fails; nonzero baselines get the same
		// proportional threshold as ns/op.
		allocsBad := (ob.AllocsOp == 0 && nb.AllocsOp > 0) ||
			(ob.AllocsOp > 0 && float64(nb.AllocsOp) > float64(ob.AllocsOp)*threshold)
		work := workRises(ob, nb)
		mark := ""
		if ratio > threshold || allocsBad || work != "" {
			if pinRe.MatchString(nb.Name) {
				switch {
				case ratio > threshold:
					mark = "  REGRESSION"
				case allocsBad:
					mark = "  REGRESSION (allocs/op)"
				default:
					mark = "  REGRESSION (work)"
				}
				regressed++
			} else {
				mark = "  (regressed, unpinned)"
			}
			mark += work
		}
		fmt.Fprintf(out, "%-42s %14.0f %14.0f %7.2fx %16s%s\n",
			nb.Name, ob.NsOp, nb.NsOp, ratio, fmt.Sprintf("%d→%d", ob.AllocsOp, nb.AllocsOp), mark)
	}
	for _, ob := range base.Benchmarks {
		if !fresh[ob.Name] && pinRe.MatchString(ob.Name) {
			fmt.Fprintf(out, "%-42s missing from the fresh run (was %.0f ns/op)\n", ob.Name, ob.NsOp)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(out, "GATE FAILED: %d pinned benchmark(s) regressed beyond %.2fx\n", regressed, threshold)
		return 1
	}
	fmt.Fprintln(out, "gate passed")
	return 0
}

// workRises lists the work counters that rose from ob to nb, as
// " rounds/op 31→32 ...". The counters are per convergence of a fixed
// set of start configurations, so they compare whatever iteration
// counts the two runs settled on.
func workRises(ob, nb Bench) string {
	var sb strings.Builder
	for _, unit := range workCounters {
		o, ok1 := ob.Metrics[unit]
		n, ok2 := nb.Metrics[unit]
		if ok1 && ok2 && n > o {
			fmt.Fprintf(&sb, " %s %s→%s", unit, formatFloat(o), formatFloat(n))
		}
	}
	return sb.String()
}

// trendPoint is one observation of one benchmark in the history walk.
type trendPoint struct {
	source string // "BENCH_2.json[1] \"after\""
	bench  Bench
}

// trendRuns prints the full per-benchmark history across the named
// baseline files, in file order then run order. With no files it globs
// BENCH_*.json in the working directory (sorted), so the committed
// baselines read as a progress report. Exit 2 on unreadable input,
// 0 otherwise — the trend is a report, never a gate.
func trendRuns(paths []string, out, errw io.Writer) int {
	if len(paths) == 0 {
		matches, err := filepath.Glob("BENCH_*.json")
		if err != nil {
			fmt.Fprintf(errw, "benchjson: %v\n", err)
			return 2
		}
		sort.Strings(matches)
		paths = matches
	}
	if len(paths) == 0 {
		fmt.Fprintln(errw, "benchjson: -trend found no baseline files")
		return 2
	}
	series := map[string][]trendPoint{}
	var order []string // first-appearance order of benchmark names
	runs := 0
	for _, path := range paths {
		var f File
		if err := readFile(path, &f); err != nil {
			fmt.Fprintf(errw, "benchjson: %v\n", err)
			return 2
		}
		for i, r := range f.Runs {
			runs++
			src := fmt.Sprintf("%s[%d] %q", filepath.Base(path), i, r.Label)
			for _, b := range r.Benchmarks {
				if _, seen := series[b.Name]; !seen {
					order = append(order, b.Name)
				}
				series[b.Name] = append(series[b.Name], trendPoint{source: src, bench: b})
			}
		}
	}
	if runs == 0 {
		fmt.Fprintf(errw, "benchjson: -trend: %d file(s) hold no runs\n", len(paths))
		return 0
	}
	fmt.Fprintf(out, "benchjson trend: %d benchmark(s) across %d run(s) in %d file(s)\n",
		len(order), runs, len(paths))
	for _, name := range order {
		pts := series[name]
		fmt.Fprintf(out, "\n%s\n", name)
		prev := 0.0
		for i, pt := range pts {
			delta := "      -"
			if i > 0 && prev > 0 {
				delta = fmt.Sprintf("%+6.1f%%", (pt.bench.NsOp-prev)/prev*100)
			}
			fmt.Fprintf(out, "  %-34s %14.0f ns/op %s %10d B/op %6d allocs/op%s\n",
				pt.source, pt.bench.NsOp, delta, pt.bench.BOp, pt.bench.AllocsOp, formatMetrics(pt.bench.Metrics))
			prev = pt.bench.NsOp
		}
	}
	return 0
}

// formatMetrics renders a row's metrics in unit order, as
// " 6169170 moves/op 31 rounds/op", or "" when it has none.
func formatMetrics(m map[string]float64) string {
	units := make([]string, 0, len(m))
	for unit := range m {
		units = append(units, unit)
	}
	sort.Strings(units)
	var sb strings.Builder
	for _, unit := range units {
		fmt.Fprintf(&sb, " %s %s", formatFloat(m[unit]), unit)
	}
	return sb.String()
}

// formatFloat renders v in the fewest digits that read back as v.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// diffRuns compares newRun against the last run recorded in path.
func diffRuns(path string, newRun Run, threshold float64, out, errw io.Writer) int {
	var f File
	if err := readFile(path, &f); err != nil {
		fmt.Fprintf(errw, "benchjson: %v\n", err)
		return 2
	}
	if len(f.Runs) == 0 {
		fmt.Fprintf(errw, "benchjson: %s holds no runs\n", path)
		return 2
	}
	base := f.Runs[len(f.Runs)-1]
	old := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	fmt.Fprintf(out, "benchjson diff vs %q (last run of %s), threshold %.2fx ns/op\n", base.Label, path, threshold)
	fmt.Fprintf(out, "%-42s %14s %14s %8s %16s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs old→new")
	regressed := 0
	for _, nb := range newRun.Benchmarks {
		ob, ok := old[nb.Name]
		if !ok {
			fmt.Fprintf(out, "%-42s %14s %14.0f %8s %16s\n", nb.Name, "(new)", nb.NsOp, "-", fmt.Sprintf("-→%d", nb.AllocsOp))
			continue
		}
		ratio := 0.0
		if ob.NsOp > 0 {
			ratio = nb.NsOp / ob.NsOp
		}
		mark := ""
		if ratio > threshold {
			mark = "  REGRESSION"
			regressed++
		}
		fmt.Fprintf(out, "%-42s %14.0f %14.0f %7.2fx %16s%s\n",
			nb.Name, ob.NsOp, nb.NsOp, ratio, fmt.Sprintf("%d→%d", ob.AllocsOp, nb.AllocsOp), mark)
	}
	if regressed > 0 {
		fmt.Fprintf(out, "%d benchmark(s) regressed beyond %.2fx\n", regressed, threshold)
		return 1
	}
	fmt.Fprintln(out, "no regressions")
	return 0
}
