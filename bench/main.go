// Command bench is selfstab's end-to-end benchmark. It drives the
// selfstabd service in-process the way a client would — service.Open,
// Service.Handler on a loopback listener, two closed-loop clients on one
// keep-alive connection each — and drives the simulator directly for the
// million-node converge. Every run checks every output it gets, prints
// each metric as a "workload metric value unit" line, and ends with one
// JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// which carries the end-to-end metrics, or with --trace 1 the per-layer
// metrics measured from spans the benchmark records around its own calls
// into each layer. Run it from the repository root:
//
//	bash bench/run.sh --workload mut-small --seed 1 --seconds 15 --trace 0
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the named workload (or all of them in turn)
// and returns the exit code: 0 when every check passed, 1 when one
// failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: mut-small, mut-large, read-mix, converge-1m, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads()
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	code := 0
	for _, w := range ws {
		res := runWorkload(w, runConfig{
			seed:   *seed,
			window: time.Duration(*seconds) * time.Second,
			trace:  *trace == 1,
			dir:    ".bench_build",
		})
		code = max(code, report(res, stdout, stderr, defs))
	}
	return code
}

// report prints res and returns its exit code: 1 if any operation or
// check failed (or the result could not be printed), else 0.
func report(res *result, stdout, stderr io.Writer, defs []metricDef) int {
	if err := res.print(stdout, stderr, defs); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", res.workload, err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}
