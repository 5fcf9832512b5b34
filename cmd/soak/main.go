// Command soak runs randomized fault-injection campaigns over the
// protocol/executor matrix and verifies recovery per fault epoch:
// closure, re-convergence within the paper's bound, legitimacy of the
// reached configuration, and containment. Failing schedules are shrunk
// to minimal replayable repros and written as JSON artifacts.
//
// For a fixed -seed the report bytes are identical across runs and
// across -workers values.
//
// Examples:
//
//	soak -seed 1                   # default campaign, artifacts in soak-out/
//	soak -seed 1 -quick            # CI-sized campaign
//	soak -models beacon -sizes 16  # one model, one size
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"selfstab/internal/soak"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags are parsed from args, the
// report goes to stdout, diagnostics to stderr, and the process exit
// code is returned (0 ok, 1 failing cells, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "campaign seed")
		quick     = fs.Bool("quick", false, "CI-sized campaign (one size, one trial)")
		protocols = fs.String("protocols", "", "comma-separated protocols (default SMM,SMI)")
		models    = fs.String("models", "", "comma-separated models (default lockstep,beacon)")
		sizes     = fs.String("sizes", "", "comma-separated node counts (default 8,12)")
		trials    = fs.Int("trials", 0, "trials per (protocol, model, size) cell (0 = default)")
		events    = fs.Int("events", 0, "fault events per schedule (0 = default)")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = all CPUs; results are identical for any value)")
		outDir    = fs.String("out", "soak-out", "artifact directory for failing schedules (empty = don't write)")
		shrink    = fs.Int("shrink", 0, "shrink replay budget per failing cell (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := soak.Options{
		Seed:       *seed,
		Trials:     *trials,
		Events:     *events,
		Workers:    *workers,
		OutDir:     *outDir,
		ShrinkRuns: *shrink,
	}
	if *quick {
		opt.Sizes = []int{8}
		opt.Trials = 1
	}
	var err error
	if opt.Protocols, err = splitList(*protocols); err != nil {
		fmt.Fprintf(stderr, "soak: -protocols: %v\n", err)
		return 2
	}
	if opt.Models, err = splitList(*models); err != nil {
		fmt.Fprintf(stderr, "soak: -models: %v\n", err)
		return 2
	}
	if *sizes != "" {
		opt.Sizes, err = parseSizes(*sizes)
		if err != nil {
			fmt.Fprintf(stderr, "soak: -sizes: %v\n", err)
			return 2
		}
	}
	failures, err := soak.Run(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// splitList parses a comma-separated list, mapping "" to nil (use the
// campaign defaults).
func splitList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty element in %q", s)
		}
		out = append(out, part)
	}
	return out, nil
}

// parseSizes parses a comma-separated list of node counts.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
