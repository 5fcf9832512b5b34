package faults_test

import (
	"math/rand"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
)

// localCase is one protocol's side of the local-check harness: its
// checkers, its convergence bound and two decoders of a state byte,
// one that keeps the engine's states in range and one that may not.
type localCase[S comparable] struct {
	p     core.Protocol[S]
	lc    *faults.LocalChecker[S]
	full  faults.Checker[S]
	bound int
	state func(b byte, n int) S
	wild  func(b byte, n int) S
}

func smmCase(n int) localCase[core.Pointer] {
	return localCase[core.Pointer]{
		p: core.NewSMM(), lc: faults.NewSMMLocalChecker(), full: faults.SMMChecker, bound: n + 2,
		// Λ or any node, the writer itself and non-neighbors included.
		state: func(b byte, n int) core.Pointer { return core.Pointer(int(b)%(n+1) - 1) },
		// As decodeSMMInput: −2 and n, n+1 occur too.
		wild: func(b byte, n int) core.Pointer { return core.Pointer(int(b)%(n+4) - 2) },
	}
}

func smiCase(n int) localCase[bool] {
	in := func(b byte, _ int) bool { return b&1 == 1 }
	return localCase[bool]{
		p: core.NewSMI(), lc: faults.NewSMILocalChecker(), full: faults.SMIChecker, bound: 2*n + 2,
		state: in, wild: in,
	}
}

// sameVerdict fails unless the local check and the full scan agree on
// the verdict and, for a violation, on its words.
func sameVerdict(t testing.TB, got, want error, what string) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s:\nlocal: %v\nfull:  %v", what, got, want)
	}
}

// run converges cfg from a random configuration drawn from seed on a
// shards-shard fault executor, adopts it as the checker's baseline,
// then plays script three bytes (op, x, y) at a time:
//
//	op%5 == 0: SetLink({x, y}, op&8 != 0), reported through Flip;
//	op%5 == 1: the same edit on the graph directly, reported to no one;
//	op%5 == 2: WriteState(x, state(y));
//	op%5 == 3: converge, then check;
//	op%5 == 4: check as is.
//
// Finally every leftover byte overwrites one state with wild values,
// an arbitrary s′, and a last check runs. Every check must agree with
// the full scan; a check after an unreported edit or a failed check
// must have scanned in full. It returns the checks made, how many took
// the local path and how many found a violation.
func (c localCase[S]) run(t testing.TB, g *graph.Graph, shards int, seed int64, script []byte) (checks, local, bad int) {
	n := g.N()
	cfg := core.NewConfig[S](g)
	cfg.Randomize(c.p, rand.New(rand.NewSource(seed)))
	fl := sim.NewShardedFaultLockstep(c.p, cfg, shards)
	defer fl.Close()
	if res := fl.Lockstep().Run(c.bound); !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	if err := c.lc.Scan(cfg); err != nil {
		t.Fatalf("converged configuration is not legitimate: %v", err)
	}
	mustScan := false
	check := func(what string) {
		scanned, got := c.lc.Check(cfg)
		sameVerdict(t, got, c.full(cfg), what)
		if mustScan && !scanned {
			t.Fatalf("%s: checked locally after an unreported edit or a failed check", what)
		}
		checks++
		if !scanned {
			local++
		}
		if mustScan = got != nil; mustScan {
			bad++
		}
	}
	for ; len(script) >= 3 && n > 1; script = script[3:] {
		op := script[0]
		u, v := graph.NodeID(int(script[1])%n), graph.NodeID(int(script[2])%n)
		switch op % 5 {
		case 0, 1:
			if u == v {
				continue
			}
			e, present := graph.NewEdge(u, v), op&8 != 0
			if op%5 == 0 {
				before := g.Version()
				fl.SetLink(e, present)
				c.lc.Flip(e, before, g.Version())
				continue
			}
			if present && g.AddEdge(u, v) || !present && g.RemoveEdge(u, v) {
				mustScan = true
			}
		case 2:
			fl.WriteState(u, c.state(script[2], n))
		case 3:
			if res := fl.Lockstep().Run(c.bound); !res.Stable {
				t.Fatalf("did not stabilize: %v", res)
			}
			check("after converge")
		case 4:
			check("mid-script")
		}
	}
	for i, b := range script {
		cfg.States[i%n] = c.wild(b, n)
	}
	check("arbitrary states")
	return checks, local, bad
}

// decodeLocalInput turns fuzz bytes into a graph and the rest of the
// input: data[0] picks n ≤ 16, bit 0 of data[1] picks SMI over SMM and
// bit 1 two shards over one, data[2] seeds the initial states, data[3]
// counts the byte pairs after it that add edges (self-loops skipped),
// and what follows is the script.
func decodeLocalInput(data []byte) (g *graph.Graph, smi bool, shards int, seed int64, script []byte) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0) % 17
	smi, shards, seed = at(1)&1 == 1, 1+at(1)>>1&1, int64(at(2))
	g = graph.New(n)
	end := min(4+2*at(3), len(data))
	for i := 4; n > 0 && i+1 < end; i += 2 {
		if u, v := graph.NodeID(at(i)%n), graph.NodeID(at(i+1)%n); u != v {
			g.AddEdge(u, v)
		}
	}
	return g, smi, shards, seed, data[end:]
}

// FuzzLocalChecker pins LocalChecker to its full scan: from a converged
// legitimate configuration, through reported flips, unreported edits,
// state writes and reconvergence, and on an arbitrary final state
// vector, every local verdict equals the full scan's, words included.
func FuzzLocalChecker(f *testing.F) {
	// Path 0-1-2-3-4, then a script.
	path := []byte{0, 1, 1, 2, 2, 3, 3, 4}
	seed := func(flags byte, script ...byte) []byte {
		return append(append([]byte{5, flags, 7, 4}, path...), script...)
	}
	f.Add(seed(0, 0, 0, 4, 3, 0, 0))       // SMM: add {0,4}, converge
	f.Add(seed(1, 0, 0, 4, 3, 0, 0))       // SMI: the same
	f.Add(seed(0, 8, 1, 2, 4, 0, 0, 2, 3)) // SMM: cut {1,2}, check, then s′
	f.Add(seed(3, 2, 2, 1, 4, 0, 0))       // SMI, two shards: write node 2
	f.Add(seed(0, 1, 0, 2, 3, 0, 0))       // SMM: unreported add {0,2}
	f.Add(seed(2, 9, 0, 1, 0, 0, 3, 3, 0, 0, 255, 0))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, smi, shards, seed, script := decodeLocalInput(data)
		if g.N() == 0 {
			return
		}
		if smi {
			smiCase(g.N()).run(t, g, shards, seed, script)
		} else {
			smmCase(g.N()).run(t, g, shards, seed, script)
		}
	})
}

// TestLocalCheckerMatchesFullScan runs random scripts on random unit
// disks of 40–100 nodes at one and two shards, for both protocols. It
// requires most checks to have taken the local path, since a checker
// that always scanned in full would agree with the scan trivially, and
// some to have found a violation.
func TestLocalCheckerMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	checks, local, bad := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 40 + rng.Intn(61)
		g, _ := graph.RandomUnitDisk(n, 0.2, rng)
		script := make([]byte, 3*(20+rng.Intn(40)))
		rng.Read(script)
		// Mostly flips, writes and checks; one unreported edit in four
		// trials, as the op-1 slots of the other trials become flips.
		for i := 0; i < len(script); i += 3 {
			if script[i]%5 == 1 && trial%4 != 0 {
				script[i] -= 1
			}
		}
		// One leftover byte: a wild write to node 0 before the last check.
		script = append(script, byte(rng.Intn(256)))
		var c, l, b int
		if trial%2 == 0 {
			c, l, b = smmCase(n).run(t, g, 1+trial/2%2, int64(trial), script)
		} else {
			c, l, b = smiCase(n).run(t, g, 1+trial/2%2, int64(trial), script)
		}
		checks, local, bad = checks+c, local+l, bad+b
	}
	t.Logf("%d checks: %d local, %d violations", checks, local, bad)
	if local*2 < checks || bad == 0 {
		t.Fatalf("%d checks: %d local, %d violations", checks, local, bad)
	}
}

// TestLocalCheckerReadsNeighborsOfChanges pins the part of the region
// random scripts rarely need: two coordinated writes whose own nodes
// hold while a neighbor of one of them fails.
func TestLocalCheckerReadsNeighborsOfChanges(t *testing.T) {
	path := func(n int) *graph.Graph {
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
		}
		return g
	}
	t.Run("smm", func(t *testing.T) {
		// On 0-1-2-3, 1 and 2 are matched; then 2 and 3 match instead,
		// and 1, still pointing at 2, leaves edge {0,1} with no matched
		// endpoint, which only 1, a neighbor of the changed 2, can see.
		cfg := core.Config[core.Pointer]{G: path(4), States: []core.Pointer{core.Null, 2, 1, core.Null}}
		lc := faults.NewSMMLocalChecker()
		if err := lc.Scan(cfg); err != nil {
			t.Fatal(err)
		}
		cfg.States[2], cfg.States[3] = 3, 2
		neighborFails(t, lc, cfg, faults.SMMChecker)
	})
	t.Run("smi", func(t *testing.T) {
		// On 0-1-2 the set is {1}; then 1 leaves and 0 joins, and 2, a
		// neighbor of the changed 1, is left undominated.
		cfg := core.Config[bool]{G: path(3), States: []bool{false, true, false}}
		lc := faults.NewSMILocalChecker()
		if err := lc.Scan(cfg); err != nil {
			t.Fatal(err)
		}
		cfg.States[0], cfg.States[1] = true, false
		neighborFails(t, lc, cfg, faults.SMIChecker)
	})
}

func neighborFails[S comparable](t *testing.T, lc *faults.LocalChecker[S], cfg core.Config[S], full faults.Checker[S]) {
	scanned, err := lc.Check(cfg)
	sameVerdict(t, err, full(cfg), "coordinated writes")
	if err == nil || !scanned {
		t.Fatalf("scanned %v, err %v: want the full scan's violation", scanned, err)
	}
}

// The service checks after every epoch, so a legitimate configuration
// must check locally without allocating, for both protocols.
func TestLocalCheckerAllocatesNothing(t *testing.T) {
	g, _ := graph.RandomUnitDisk(1024, 0.05, rand.New(rand.NewSource(42)))
	e := g.Edges()[g.M()/2]
	t.Run("smm", func(t *testing.T) { localCheckAllocs(t, smmCase(g.N()), g, e) })
	t.Run("smi", func(t *testing.T) { localCheckAllocs(t, smiCase(g.N()), g, e) })
}

func localCheckAllocs[S comparable](t *testing.T, c localCase[S], g *graph.Graph, e graph.Edge) {
	cfg := core.NewConfig[S](g)
	cfg.Randomize(c.p, rand.New(rand.NewSource(1)))
	fl := sim.NewFaultLockstep(c.p, cfg)
	if res := fl.Lockstep().Run(c.bound); !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	if err := c.lc.Scan(cfg); err != nil {
		t.Fatal(err)
	}
	flap := func() {
		for _, present := range []bool{false, true} {
			before := g.Version()
			fl.SetLink(e, present)
			c.lc.Flip(e, before, g.Version())
		}
		if res := fl.Lockstep().Run(c.bound); !res.Stable {
			t.Fatalf("did not stabilize: %v", res)
		}
	}
	// The warm-up run grows the flip list to its working size.
	avg := testing.AllocsPerRun(20, func() {
		flap()
		if scanned, err := c.lc.Check(cfg); scanned || err != nil {
			t.Fatalf("check after a flap: scanned %v, err %v", scanned, err)
		}
	})
	if avg != 0 {
		t.Fatalf("a flap and a local check allocate %v times", avg)
	}
}
