// Command selfstab runs one self-stabilizing protocol on one topology
// under a chosen executor and reports convergence, with optional
// round-by-round trace output (CSV), an ASCII timeline, and DOT
// rendering of the final configuration.
//
// Examples:
//
//	selfstab -protocol smm -topology gnp -n 64 -trials 20
//	selfstab -protocol smi -topology disk -n 100 -executor beacon -jitter 0.2
//	selfstab -protocol smm-arbitrary -topology cycle -n 4 -max-rounds 50
//	selfstab -protocol smm -topology path -n 16 -trace trace.csv -viz
//	selfstab -protocol tree -topology lollipop -n 32
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"selfstab"
	"selfstab/internal/cli"
	"selfstab/internal/core"
	"selfstab/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags are parsed from args, results
// go to stdout, diagnostics to stderr, and the process exit code is
// returned (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "selfstab: ", 0)
	fs := flag.NewFlagSet("selfstab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol  = fs.String("protocol", "smm", strings.Join(cli.ProtocolNames, " | "))
		topology  = fs.String("topology", "gnp", strings.Join(cli.TopologyNames, " | "))
		n         = fs.Int("n", 32, "number of nodes")
		p         = fs.Float64("p", 0.1, "edge probability (gnp) / radius hint (disk)")
		seed      = fs.Int64("seed", 1, "random seed")
		trials    = fs.Int("trials", 1, "independent trials (random initial states)")
		maxRounds = fs.Int("max-rounds", 0, "round limit (0 = protocol-derived default)")
		executor  = fs.String("executor", "lockstep", strings.Join(cli.ExecutorNames, " | "))
		jitter    = fs.Float64("jitter", 0.1, "beacon jitter fraction (executor=beacon)")
		loss      = fs.Float64("loss", 0, "beacon loss probability (executor=beacon)")
		maxLag    = fs.Int("lag", 2, "staleness bound (executor=stale)")
		traceOut  = fs.String("trace", "", "write a per-round CSV trace (lockstep smm/smi, first trial)")
		dotOut    = fs.String("dot", "", "write the final configuration as DOT (smm, first trial)")
		showViz   = fs.Bool("viz", false, "print a per-round ASCII timeline (lockstep smm/smi, first trial)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A loss of 1 drops every beacon, so the beacon run sees no neighbors
	// and reports a vacuous "stable"; a jitter of 1 or more can make a
	// beacon interval non-positive.
	switch {
	case *maxLag < 0:
		logger.Printf("-lag %d: want >= 0", *maxLag)
		return 2
	case !(*loss >= 0 && *loss < 1): // also rejects NaN
		logger.Printf("-loss %v: want 0 <= loss < 1", *loss)
		return 2
	case !(*jitter >= 0 && *jitter < 1):
		logger.Printf("-jitter %v: want 0 <= jitter < 1", *jitter)
		return 2
	}

	rng := rand.New(rand.NewSource(*seed))
	g, err := cli.BuildTopology(*topology, *n, *p, rng)
	if err != nil {
		logger.Print(err)
		return 2
	}
	fmt.Fprintf(stdout, "%s on %s %v, executor %s\n", *protocol, *topology, g, *executor)

	for trial := 0; trial < *trials; trial++ {
		opt := cli.TrialOptions{
			Protocol:  *protocol,
			Executor:  *executor,
			Seed:      *seed + int64(trial),
			MaxRounds: *maxRounds,
			Jitter:    *jitter,
			Loss:      *loss,
			MaxLag:    *maxLag,
		}
		var traceFile *os.File
		if trial == 0 && *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			if err != nil {
				logger.Print(err)
				return 1
			}
			opt.Trace = traceFile
		}
		if trial == 0 && *showViz {
			opt.Viz = stdout
		}
		summary, err := cli.RunTrial(g, opt, rng)
		if traceFile != nil {
			traceFile.Close()
		}
		if err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintln(stdout, " ", summary)
	}

	if *dotOut != "" && (*protocol == "smm" || *protocol == "hsuhuang") {
		if err := writeMatchingDOT(g, *protocol, *seed, *dotOut, stdout, logger); err != nil {
			return 1
		}
	}
	return 0
}

// writeMatchingDOT re-runs the first trial deterministically and renders
// its matching.
func writeMatchingDOT(g *graph.Graph, protocol string, seed int64, path string,
	stdout io.Writer, logger *log.Logger) error {

	var res selfstab.Result
	var matching []graph.Edge
	if protocol == "smm" {
		res, matching = selfstab.RunSMM(g, seed)
	} else {
		cfg := core.NewConfig[core.Pointer](g)
		cfg.Randomize(selfstab.NewHsuHuang(), rand.New(rand.NewSource(seed)))
		l := selfstab.NewLockstep[core.Pointer](selfstab.NewHsuHuang(), cfg)
		res = l.Run(50 * g.N())
		matching = core.MatchingOf(cfg)
	}
	if !res.Stable {
		logger.Printf("dot: run did not stabilize; rendering last state")
	}
	f, err := os.Create(path)
	if err != nil {
		logger.Print(err)
		return err
	}
	defer f.Close()
	highlight := map[graph.Edge]bool{}
	for _, e := range matching {
		highlight[e] = true
	}
	if err := selfstab.WriteDOT(f, g, selfstab.DOTOptions{Name: "SMM", Highlight: highlight}); err != nil {
		logger.Print(err)
		return err
	}
	fmt.Fprintf(stdout, "  DOT written to %s\n", path)
	return nil
}
