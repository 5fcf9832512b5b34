// Package cli implements the logic behind the command-line tools so it
// can be tested like any other library code: topology construction from
// name + parameters, protocol trial dispatch across executors, and the
// report lines the tools print.
package cli

import (
	"fmt"
	"io"
	"math/rand"

	"selfstab/internal/beacon"
	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/protocols"
	"selfstab/internal/sim"
	"selfstab/internal/trace"
	"selfstab/internal/viz"
)

// TopologyNames lists the accepted -topology values.
var TopologyNames = []string{"path", "cycle", "complete", "star", "grid", "tree", "gnp", "disk", "lollipop", "barbell"}

// BuildTopology constructs the named topology on n nodes. p is the edge
// probability for gnp, the radius hint for disk, and ignored elsewhere.
func BuildTopology(name string, n int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("cli: n = %d, want n >= 0", n)
	}
	switch name {
	case "path":
		return graph.Path(n), nil
	case "cycle":
		if n < 3 {
			return nil, fmt.Errorf("cli: cycle needs n >= 3")
		}
		return graph.Cycle(n), nil
	case "complete":
		return graph.Complete(n), nil
	case "star":
		return graph.Star(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "tree":
		return graph.RandomTree(n, rng), nil
	case "gnp":
		return graph.RandomConnected(n, p, rng), nil
	case "disk":
		g, _ := graph.RandomUnitDisk(n, p, rng)
		return g, nil
	case "lollipop":
		k := n / 2
		if k < 2 {
			k = 2
		}
		return graph.Lollipop(k, n-k), nil
	case "barbell":
		k := n / 2
		if k < 2 {
			k = 2
		}
		return graph.Barbell(k, n-2*k), nil
	}
	return nil, fmt.Errorf("cli: unknown topology %q", name)
}

// ProtocolNames lists the accepted -protocol values.
var ProtocolNames = []string{"smm", "smi", "smm-arbitrary", "hsuhuang", "refined-hh", "coloring", "randmis", "tree", "clustering"}

// ExecutorNames lists the accepted -executor values.
var ExecutorNames = []string{"lockstep", "beacon", "stale"}

// TrialOptions configures one RunTrial call.
type TrialOptions struct {
	Protocol  string
	Executor  string
	Seed      int64
	MaxRounds int // 0 = protocol-derived default
	Jitter    float64
	Loss      float64
	Trace     io.Writer // per-round CSV for smm/smi on lockstep (nil = off)
	Viz       io.Writer // ASCII timeline for smm/smi on lockstep (nil = off)
	MaxLag    int       // staleness bound (executor=stale)
}

// DefaultLimit returns the round limit used when MaxRounds is zero.
func DefaultLimit(protocol string, n int) int {
	switch protocol {
	case "smm", "smi", "coloring", "clustering":
		return n + 4
	case "tree":
		return 5*n + 10
	case "smm-arbitrary", "hsuhuang":
		return 50 * n
	default:
		return 500 * n
	}
}

// RunTrial executes one protocol trial and returns the one-line summary
// the CLI prints. The graph is never mutated.
func RunTrial(g *graph.Graph, opt TrialOptions, rng *rand.Rand) (string, error) {
	limit := opt.MaxRounds
	if limit == 0 {
		limit = DefaultLimit(opt.Protocol, g.N())
	}
	switch opt.Protocol {
	case "smm", "smm-arbitrary", "hsuhuang":
		return runPointerTrial(g, opt, limit, rng)
	case "smi":
		return runSMITrial(g, opt, limit, rng)
	case "refined-hh":
		ref := protocols.Refine[core.Pointer](protocols.NewHsuHuang(), g.N(), opt.Seed)
		cfg := core.NewConfig[protocols.RefState[core.Pointer]](g)
		cfg.Randomize(ref, rand.New(rand.NewSource(opt.Seed)))
		l := sim.NewLockstep[protocols.RefState[core.Pointer]](ref, cfg)
		return fmt.Sprintf("seed %d: %v", opt.Seed, l.Run(limit)), nil
	case "coloring":
		p := protocols.NewColoring()
		cfg := core.NewConfig[int](g)
		cfg.Randomize(p, rand.New(rand.NewSource(opt.Seed)))
		l := sim.NewLockstep[int](p, cfg)
		res := l.Run(limit)
		return fmt.Sprintf("seed %d: %v, colors<=%d", opt.Seed, res, maxColor(cfg.States)+1), nil
	case "randmis":
		p := protocols.NewRandMIS(g.N(), opt.Seed)
		cfg := core.NewConfig[bool](g)
		cfg.Randomize(p, rand.New(rand.NewSource(opt.Seed)))
		l := sim.NewLockstep[bool](p, cfg)
		res := l.Run(limit)
		return fmt.Sprintf("seed %d: %v, |S|=%d", opt.Seed, res, len(core.SetOf(cfg))), nil
	case "tree":
		p := protocols.NewSpanningTree(g.N())
		cfg := core.NewConfig[protocols.TreeState](g)
		cfg.Randomize(p, rand.New(rand.NewSource(opt.Seed)))
		l := sim.NewLockstep[protocols.TreeState](p, cfg)
		res := l.Run(limit)
		suffix := ""
		if err := protocols.VerifyTree(g, cfg.States); err != nil {
			suffix = fmt.Sprintf(" INVALID: %v", err)
		}
		return fmt.Sprintf("seed %d: %v%s", opt.Seed, res, suffix), nil
	case "clustering":
		p := protocols.NewClustering()
		cfg := core.NewConfig[protocols.LayerState[bool, core.Pointer]](g)
		cfg.Randomize(p, rand.New(rand.NewSource(opt.Seed)))
		l := sim.NewLockstep[protocols.LayerState[bool, core.Pointer]](p, cfg)
		res := l.Run(limit)
		heads := 0
		for _, st := range cfg.States {
			if st.A {
				heads++
			}
		}
		suffix := ""
		if err := protocols.VerifyClustering(g, cfg.States); err != nil {
			suffix = fmt.Sprintf(" INVALID: %v", err)
		}
		return fmt.Sprintf("seed %d: %v, heads=%d%s", opt.Seed, res, heads, suffix), nil
	}
	return "", fmt.Errorf("cli: unknown protocol %q", opt.Protocol)
}

func maxColor(colors []int) int {
	m := 0
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return m
}

func pointerProtocol(name string) core.Protocol[core.Pointer] {
	switch name {
	case "smm":
		return core.NewSMM()
	case "smm-arbitrary":
		return core.NewSMMArbitrary()
	case "hsuhuang":
		return protocols.NewHsuHuang()
	}
	return nil
}

func randomStates[S comparable](p core.Protocol[S], g *graph.Graph, seed int64) []S {
	srng := rand.New(rand.NewSource(seed))
	states := make([]S, g.N())
	for v := range states {
		states[v] = p.Random(graph.NodeID(v), g.Neighbors(graph.NodeID(v)), srng)
	}
	return states
}

func runPointerTrial(g *graph.Graph, opt TrialOptions, limit int, rng *rand.Rand) (string, error) {
	p := pointerProtocol(opt.Protocol)
	states := randomStates[core.Pointer](p, g, opt.Seed)
	switch opt.Executor {
	case "lockstep":
		cfg := core.Config[core.Pointer]{G: g, States: states}
		l := sim.NewLockstep[core.Pointer](p, cfg)
		var tr *trace.Trace
		if opt.Trace != nil {
			tr = trace.New(p.Name(), trace.SMMColumns...)
			if err := trace.RecordSMM(tr, 0, 0, cfg); err != nil {
				return "", err
			}
		}
		var tl *viz.Timeline
		if opt.Viz != nil {
			tl = viz.NewTimeline(p.Name() + " timeline")
			tl.Add(viz.SMMLine(cfg))
		}
		res := l.RunHook(limit, func(round int, c core.Config[core.Pointer]) {
			if tr != nil {
				_ = trace.RecordSMM(tr, round, 0, c)
			}
			if tl != nil {
				tl.Add(viz.SMMLine(c))
			}
		})
		if tr != nil {
			if err := tr.WriteCSV(opt.Trace); err != nil {
				return "", err
			}
		}
		if tl != nil {
			if _, err := io.WriteString(opt.Viz, tl.String()); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("seed %d: %v, matching %d, %v", opt.Seed, res,
			len(core.MatchingOf(cfg)), core.CensusOf(core.ClassifySMM(cfg))), nil
	case "beacon":
		prm := beacon.DefaultParams()
		prm.Jitter = opt.Jitter
		prm.Loss = opt.Loss
		net := beacon.NewNetwork[core.Pointer](p, g.Clone(), states, prm, rng)
		res := net.Run(float64(4*limit), 6)
		return fmt.Sprintf("seed %d: %v, matching %d", opt.Seed, res,
			len(core.MatchingOf(net.Config()))), nil
	case "stale":
		cfg := core.Config[core.Pointer]{G: g, States: states}
		l := sim.NewStaleLockstep[core.Pointer](p, cfg, opt.MaxLag, rng)
		res := l.Run(50 * (opt.MaxLag + 1) * limit)
		return fmt.Sprintf("seed %d (lag %d): %v, matching %d",
			opt.Seed, opt.MaxLag, res, len(core.MatchingOf(cfg))), nil
	}
	return "", fmt.Errorf("cli: unknown executor %q", opt.Executor)
}

func runSMITrial(g *graph.Graph, opt TrialOptions, limit int, rng *rand.Rand) (string, error) {
	p := core.NewSMI()
	states := randomStates[bool](p, g, opt.Seed)
	switch opt.Executor {
	case "lockstep":
		cfg := core.Config[bool]{G: g, States: states}
		l := sim.NewLockstep[bool](p, cfg)
		var tr *trace.Trace
		if opt.Trace != nil {
			tr = trace.New(p.Name(), trace.SMIColumns...)
			if err := trace.RecordSMI(tr, 0, 0, cfg); err != nil {
				return "", err
			}
		}
		var tl *viz.Timeline
		if opt.Viz != nil {
			tl = viz.NewTimeline(p.Name() + " timeline")
			tl.Add(viz.SMILine(cfg))
		}
		res := l.RunHook(limit, func(round int, c core.Config[bool]) {
			if tr != nil {
				_ = trace.RecordSMI(tr, round, 0, c)
			}
			if tl != nil {
				tl.Add(viz.SMILine(c))
			}
		})
		if tr != nil {
			if err := tr.WriteCSV(opt.Trace); err != nil {
				return "", err
			}
		}
		if tl != nil {
			if _, err := io.WriteString(opt.Viz, tl.String()); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("seed %d: %v, |S|=%d", opt.Seed, res, len(core.SetOf(cfg))), nil
	case "beacon":
		prm := beacon.DefaultParams()
		prm.Jitter = opt.Jitter
		prm.Loss = opt.Loss
		net := beacon.NewNetwork[bool](p, g.Clone(), states, prm, rng)
		res := net.Run(float64(4*limit), 6)
		return fmt.Sprintf("seed %d: %v, |S|=%d", opt.Seed, res, len(core.SetOf(net.Config()))), nil
	case "stale":
		cfg := core.Config[bool]{G: g, States: states}
		l := sim.NewStaleLockstep[bool](p, cfg, opt.MaxLag, rng)
		res := l.Run(50 * (opt.MaxLag + 1) * limit)
		return fmt.Sprintf("seed %d (lag %d): %v, |S|=%d",
			opt.Seed, opt.MaxLag, res, len(core.SetOf(cfg))), nil
	}
	return "", fmt.Errorf("cli: unknown executor %q", opt.Executor)
}
