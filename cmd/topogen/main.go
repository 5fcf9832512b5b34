// Command topogen generates experiment topologies and emits them as DOT
// or edge lists, optionally highlighting the maximal matching or
// independent set a protocol run produces — handy for eyeballing the
// structures the paper maintains.
//
// Examples:
//
//	topogen -topology disk -n 40 -format dot > disk.dot
//	topogen -topology cycle -n 12 -overlay smm -format dot > matched.dot
//	topogen -topology gnp -n 24 -format edges
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"selfstab"
	"selfstab/internal/cli"
	"selfstab/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags are parsed from args, the
// graph goes to stdout, diagnostics to stderr, and the process exit
// code is returned (0 ok, 1 generation failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "topogen: ", 0)
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topology = fs.String("topology", "gnp", strings.Join(cli.TopologyNames, " | "))
		n        = fs.Int("n", 24, "number of nodes")
		p        = fs.Float64("p", 0.1, "edge probability / radius hint")
		seed     = fs.Int64("seed", 1, "random seed")
		format   = fs.String("format", "dot", "dot | edges")
		overlay  = fs.String("overlay", "", "run a protocol and highlight its output: smm | smi")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rng := rand.New(rand.NewSource(*seed))
	g, err := cli.BuildTopology(*topology, *n, *p, rng)
	if err != nil {
		logger.Print(err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	opt := selfstab.DOTOptions{Name: "G"}
	switch *overlay {
	case "":
	case "smm":
		res, matching := selfstab.RunSMM(g, *seed)
		if !res.Stable {
			logger.Printf("SMM did not stabilize: %v", res)
			return 1
		}
		opt.Name = "SMM"
		opt.Highlight = map[graph.Edge]bool{}
		for _, e := range matching {
			opt.Highlight[e] = true
		}
	case "smi":
		res, mis := selfstab.RunSMI(g, *seed)
		if !res.Stable {
			logger.Printf("SMI did not stabilize: %v", res)
			return 1
		}
		opt.Name = "SMI"
		opt.FillNodes = map[graph.NodeID]bool{}
		for _, v := range mis {
			opt.FillNodes[v] = true
		}
	default:
		logger.Printf("unknown overlay %q", *overlay)
		return 2
	}

	switch *format {
	case "dot":
		if err := selfstab.WriteDOT(out, g, opt); err != nil {
			logger.Print(err)
			return 1
		}
	case "edges":
		fmt.Fprintf(out, "# %s n=%d m=%d\n", *topology, g.N(), g.M())
		if err := graph.WriteEdgeList(out, g); err != nil {
			logger.Print(err)
			return 1
		}
	default:
		logger.Printf("unknown format %q", *format)
		return 2
	}
	return 0
}
