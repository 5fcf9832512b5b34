package faults_test

import (
	"fmt"
	"math/rand"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
	"selfstab/internal/verify"
)

// oracleSMMCheck is the composition SMMChecker replaced, kept as the
// reference its verdicts and words are compared against: validity, then
// verify.IsMaximalMatching over the mutually pointing pairs.
func oracleSMMCheck(cfg core.Config[core.Pointer]) error {
	if err := core.ValidSMMConfig(cfg); err != nil {
		return err
	}
	if err := verify.IsMaximalMatching(cfg.G, core.MatchingOf(cfg)); err != nil {
		return fmt.Errorf("SMM: %w", err)
	}
	return nil
}

// decodeSMMInput turns fuzz bytes into an SMM configuration: data[0]
// picks n ≤ 16, bit 0 of data[1] asks for convergence, the next n
// bytes are the pointers (byte b points at b mod (n+4) − 2, so −2, Λ,
// the node itself, non-neighbors and n, n+1 all occur; a missing byte
// is −2), and every byte pair after them adds an edge unless it is a
// self-loop.
func decodeSMMInput(data []byte) (cfg core.Config[core.Pointer], converge bool) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0) % 17
	converge = at(1)&1 == 1
	g := graph.New(n)
	for i := 2 + n; n > 0 && i+1 < len(data); i += 2 {
		if u, v := graph.NodeID(at(i)%n), graph.NodeID(at(i+1)%n); u != v {
			g.AddEdge(u, v)
		}
	}
	cfg = core.NewConfig[core.Pointer](g)
	for v := range cfg.States {
		cfg.States[v] = core.Pointer(at(2+v)%(n+4) - 2)
	}
	return cfg, converge
}

// FuzzSMMChecker pins SMMChecker to the oracle on arbitrary graphs and
// pointer vectors, before or after convergence: both accept, or both
// reject with the same words.
func FuzzSMMChecker(f *testing.F) {
	// Path 0-1-2-3 throughout; pointer byte t+2 points at t, 1 is Λ.
	path := []byte{0, 1, 1, 2, 2, 3}
	seed := func(flags byte, ptrs ...byte) []byte {
		return append(append([]byte{byte(len(ptrs)), flags}, ptrs...), path...)
	}
	f.Add(seed(0, 3, 2, 5, 4)) // legit: {0,1} and {2,3}
	f.Add(seed(0, 5, 1, 1, 1)) // 0 points at non-neighbor 3
	f.Add(seed(0, 1, 1, 1, 6)) // 3 points at n = 4
	f.Add(seed(0, 0, 1, 1, 1)) // 0 points at −2
	f.Add(seed(0, 3, 2, 1, 1)) // edge {2,3} has no matched endpoint
	f.Add(seed(1, 1, 1, 1, 1)) // converged from all Λ
	f.Add([]byte{0, 0})        // empty graph
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, converge := decodeSMMInput(data)
		if converge && cfg.G.N() > 0 {
			core.NormalizeSMM(cfg)
			sim.NewLockstep[core.Pointer](core.NewSMM(), cfg).Run(cfg.G.N() + 2)
		}
		want := oracleSMMCheck(cfg)
		got := faults.SMMChecker(cfg)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("states %v on %v:\nSMMChecker: %v\noracle:     %v", cfg.States, cfg.G.Edges(), got, want)
		}
	})
}

// The service checks legitimacy after every epoch, so a converged
// configuration must check without allocating.
func TestSMMCheckerAllocatesNothing(t *testing.T) {
	g, _ := graph.RandomUnitDisk(1024, 0.05, rand.New(rand.NewSource(42)))
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(core.NewSMM(), rand.New(rand.NewSource(1)))
	if res := sim.NewLockstep[core.Pointer](core.NewSMM(), cfg).Run(g.N() + 2); !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	if err := faults.SMMChecker(cfg); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { _ = faults.SMMChecker(cfg) }); avg != 0 {
		t.Fatalf("SMMChecker allocates %v times on a legitimate configuration", avg)
	}
}

// oracleSMICheck is the composition SMIChecker replaced, kept as the
// reference its verdicts and words are compared against.
func oracleSMICheck(cfg core.Config[bool]) error {
	if err := verify.IsMaximalIndependentSet(cfg.G, core.SetOf(cfg)); err != nil {
		return fmt.Errorf("SMI: %w", err)
	}
	return nil
}

// decodeSMIInput turns fuzz bytes into an SMI configuration: data[0]
// picks n ≤ 16, bit 0 of data[1] asks for convergence, bits 1–2 make
// the state vector one shorter or up to two longer than n (the extra
// slots take the next bytes too), the next bytes are the states (odd
// means in the set; a missing byte is out), and every byte pair after
// them adds an edge unless it is a self-loop.
func decodeSMIInput(data []byte) (cfg core.Config[bool], converge bool) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0) % 17
	converge = at(1)&1 == 1
	size := n
	switch at(1) >> 1 & 3 {
	case 1:
		size = max(n-1, 0)
	case 2:
		size = n + 1
	case 3:
		size = n + 2
	}
	g := graph.New(n)
	for i := 2 + size; n > 0 && i+1 < len(data); i += 2 {
		if u, v := graph.NodeID(at(i)%n), graph.NodeID(at(i+1)%n); u != v {
			g.AddEdge(u, v)
		}
	}
	cfg = core.Config[bool]{G: g, States: make([]bool, size)}
	for v := range cfg.States {
		cfg.States[v] = at(2+v)&1 == 1
	}
	return cfg, converge && size == n
}

// FuzzSMIChecker pins SMIChecker to the oracle on arbitrary graphs and
// state vectors, before or after convergence: both accept, or both
// reject with the same words.
func FuzzSMIChecker(f *testing.F) {
	// Path 0-1-2-3 throughout; a state byte is odd for in the set.
	path := []byte{0, 1, 1, 2, 2, 3}
	seed := func(flags byte, sts ...byte) []byte {
		return append(append([]byte{4, flags}, sts...), path...)
	}
	f.Add(seed(0, 0, 1, 0, 1))    // legit: {1, 3}
	f.Add(seed(0, 1, 1, 0, 1))    // 0 and 1 adjacent members
	f.Add(seed(0, 1, 0, 0, 0))    // 2 not dominated
	f.Add(seed(0, 0, 0, 1, 1))    // 2 and 3 adjacent, 0 not dominated
	f.Add(seed(1, 1, 1, 1, 1))    // converged from all in
	f.Add(seed(4, 0, 1, 0, 1, 1)) // in-set slot past the graph
	f.Add(seed(2, 0, 1, 0))       // state vector one short
	f.Add([]byte{0, 0})           // empty graph
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, converge := decodeSMIInput(data)
		if converge && cfg.G.N() > 0 {
			sim.NewLockstep[bool](core.NewSMI(), cfg).Run(2*cfg.G.N() + 2)
		}
		want := oracleSMICheck(cfg)
		got := faults.SMIChecker(cfg)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("states %v on %v:\nSMIChecker: %v\noracle:     %v", cfg.States, cfg.G.Edges(), got, want)
		}
	})
}

// The service checks legitimacy after every epoch, so a converged SMI
// configuration must check without allocating, like SMM's.
func TestSMICheckerAllocatesNothing(t *testing.T) {
	g, _ := graph.RandomUnitDisk(1024, 0.05, rand.New(rand.NewSource(42)))
	cfg := core.NewConfig[bool](g)
	cfg.Randomize(core.NewSMI(), rand.New(rand.NewSource(1)))
	if res := sim.NewLockstep[bool](core.NewSMI(), cfg).Run(2*g.N() + 2); !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	if err := faults.SMIChecker(cfg); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { _ = faults.SMIChecker(cfg) }); avg != 0 {
		t.Fatalf("SMIChecker allocates %v times on a legitimate configuration", avg)
	}
}
