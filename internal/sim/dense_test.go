package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/protocols"
)

// denseSettings are the settings of the dense-round seam the
// equivalence tests run at: never (every moving round marks, the
// engine before dense rounds existed), the default, and after every
// moving round.
var denseSettings = [3]struct {
	name string
	div  int
}{{"never", 0}, {"default", denseRoundDiv}, {"always", math.MaxInt}}

// eachDense runs body as one subtest per dense-round setting, with the
// same seeds and assertions, and restores the default.
func eachDense(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	defer func(div int) { denseRoundDiv = div }(denseRoundDiv)
	for _, d := range denseSettings {
		denseRoundDiv = d.div
		t.Run(d.name, body)
	}
}

// markSpy is a kernel protocol that records the ids its shards drain
// and counts its MarkBatch calls, until take hands them out.
type markSpy[S comparable] struct {
	core.Protocol[S]
	core.Kernel[S]
	ids   []graph.NodeID
	marks int
}

func (m *markSpy[S]) MoveBatch(ids []graph.NodeID, g *graph.Graph, states, next []S, moved []bool) {
	m.ids = append(m.ids, ids...)
	m.Kernel.MoveBatch(ids, g, states, next, moved)
}

func (m *markSpy[S]) MarkBatch(ids []graph.NodeID, g *graph.Graph, states []S, moved []bool, f *graph.Frontier) {
	m.marks++
	m.Kernel.MarkBatch(ids, g, states, moved, f)
}

// spyRound is one round as a markSpy saw it.
type spyRound[S comparable] struct {
	ids    []graph.NodeID // drained, over all shards in shard order
	marks  int            // MarkBatch calls
	moved  int
	states []S // post-round states
}

func (m *markSpy[S]) take(moved int, states []S) spyRound[S] {
	r := spyRound[S]{m.ids, m.marks, moved, slices.Clone(states)}
	m.ids, m.marks = nil, 0
	return r
}

// spyRun converges p from a copy of start on the engine mk builds,
// through RunHook, and returns every round it ran, the closing quiet
// one included.
func spyRun[S comparable](t *testing.T, p interface {
	core.Protocol[S]
	core.Kernel[S]
}, g *graph.Graph, start []S, mk func(core.Protocol[S], core.Config[S]) *Lockstep[S]) []spyRound[S] {
	t.Helper()
	spy := &markSpy[S]{Protocol: p, Kernel: p}
	l := mk(spy, core.Config[S]{G: g, States: slices.Clone(start)})
	defer l.Close()
	var rounds []spyRound[S]
	moves := 0
	res := l.RunHook(2*g.N()+2, func(_ int, cfg core.Config[S]) {
		rounds = append(rounds, spy.take(l.Moves()-moves, cfg.States))
		moves = l.Moves()
	})
	if !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	return append(rounds, spy.take(0, l.cfg.States))
}

// TestDenseRoundSkipsMarks pins the dense-round switch through a kernel
// that records each round's drained ids and counts MarkBatch calls:
//   - a round in which at least n/4 nodes moved calls no MarkBatch, and
//     the next round evaluates all n;
//   - a sparse round marks as the engine with dense rounds off does, so
//     the next round drains the same ids there;
//   - the reference engine never calls MarkBatch;
//   - RunHook's per-round states equal NewReferenceLockstep's.
func TestDenseRoundSkipsMarks(t *testing.T) {
	g, _ := graph.RandomUnitDisk(400, 0.1, rand.New(rand.NewSource(9)))
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("smm/K=%d", k), func(t *testing.T) { testDenseRounds[core.Pointer](t, core.NewSMM(), g, k) })
		t.Run(fmt.Sprintf("smi/K=%d", k), func(t *testing.T) { testDenseRounds[bool](t, core.NewSMI(), g, k) })
	}
}

func testDenseRounds[S comparable](t *testing.T, p interface {
	core.Protocol[S]
	core.Kernel[S]
}, g *graph.Graph, k int) {
	n := g.N()
	start := equivCfg[S](p, g, 3).States
	sharded := func(p core.Protocol[S], cfg core.Config[S]) *Lockstep[S] { return NewShardedLockstep(p, cfg, k) }
	defer func(div int) { denseRoundDiv = div }(denseRoundDiv)
	denseRoundDiv = 0
	off := spyRun(t, p, g, start, sharded)
	denseRoundDiv = 4
	on := spyRun(t, p, g, start, sharded)
	ref := spyRun(t, p, g, start, NewReferenceLockstep[S])
	if len(on) != len(ref) || len(off) != len(ref) {
		t.Fatalf("rounds: dense %d, never dense %d, reference %d", len(on), len(off), len(ref))
	}
	all := make([]graph.NodeID, n)
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	denseSeen, sparseSeen := 0, 0
	for r := range ref {
		if !slices.Equal(on[r].states, ref[r].states) || !slices.Equal(off[r].states, ref[r].states) {
			t.Fatalf("round %d: states differ from the reference engine's", r)
		}
		if ref[r].marks != 0 || !slices.Equal(ref[r].ids, all) {
			t.Fatalf("round %d: reference engine marked %d times over %d of %d ids", r, ref[r].marks, len(ref[r].ids), n)
		}
		if on[r].moved != ref[r].moved || off[r].moved != ref[r].moved {
			t.Fatalf("round %d: moved %d / %d, reference %d", r, on[r].moved, off[r].moved, ref[r].moved)
		}
		if r == len(ref)-1 {
			break // the closing quiet round marks nothing on any engine
		}
		if off[r].marks != k {
			t.Fatalf("round %d: never-dense engine marked %d times on %d shards", r, off[r].marks, k)
		}
		if on[r].moved >= n/4 {
			denseSeen++
			if on[r].marks != 0 || !slices.Equal(on[r+1].ids, all) {
				t.Fatalf("dense round %d (%d of %d moved): %d MarkBatch calls, next round drained %d ids",
					r, on[r].moved, n, on[r].marks, len(on[r+1].ids))
			}
			continue
		}
		sparseSeen++
		if on[r].marks != k || !slices.Equal(on[r+1].ids, off[r+1].ids) {
			t.Fatalf("sparse round %d (%d of %d moved): %d MarkBatch calls, next round drained %v, never-dense engine %v",
				r, on[r].moved, n, on[r].marks, on[r+1].ids, off[r+1].ids)
		}
	}
	if denseSeen == 0 || sparseSeen == 0 {
		t.Fatalf("run has %d dense and %d sparse moving rounds; it must have both", denseSeen, sparseSeen)
	}
}

// denseDivs are the thresholds FuzzDenseRounds draws from: never, n/1
// through n/8, and every moving round.
var denseDivs = [...]int{0, 1, 2, 3, 4, 5, 8, math.MaxInt}

// FuzzDenseRounds drives the frontier engine, at a drawn shard count and
// dense-round threshold, and the reference engine through the same
// random graph, configuration and edit script, and requires the same
// Result and states after every chunked ConvergeCtx call. The edits go
// through FaultLockstep between rounds: WriteState, SetLink adding or
// removing an edge, DropLink and Freeze, whose pins age only in the
// adapter's own Step rounds. The protocol is SMM, SMI, or
// RandMIS, which has no kernel and draws randomness when it moves.
func FuzzDenseRounds(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4), []byte{5, 0, 0, 0, 3, 1, 1, 2, 7, 5, 0, 0})
	f.Add(int64(2), uint8(1), uint8(1), uint8(7), []byte{5, 0, 1, 1, 4, 9, 5, 0, 0, 2, 6, 2, 5, 1, 0})
	f.Add(int64(3), uint8(2), uint8(3), uint8(3), []byte{5, 2, 0, 0, 1, 1, 5, 0, 0, 4, 2, 1, 5, 3, 0})
	f.Add(int64(4), uint8(0), uint8(7), uint8(0), []byte{3, 0, 2, 5, 0, 0, 1, 4, 8, 5, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, proto, shards, div uint8, script []byte) {
		defer func(d int) { denseRoundDiv = d }(denseRoundDiv)
		denseRoundDiv = denseDivs[int(div)%len(denseDivs)]
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(39), 0.05+rng.Float64()*0.4, rng)
		k := 1 + int(shards)%8
		switch proto % 3 {
		case 0:
			fuzzDense(t, g, k, seed, script, func() core.Protocol[core.Pointer] { return core.NewSMM() })
		case 1:
			fuzzDense(t, g, k, seed, script, func() core.Protocol[bool] { return core.NewSMI() })
		default:
			fuzzDense(t, g, k, seed, script, func() core.Protocol[bool] { return protocols.NewRandMIS(g.N(), seed) })
		}
	})
}

// fuzzDense runs script, three bytes (op, a, b) per step, on a frontier
// and a reference fault adapter over copies of g, then converges both
// to the end.
func fuzzDense[S comparable](t *testing.T, g *graph.Graph, k int, seed int64, script []byte, mk func() core.Protocol[S]) {
	pf, pr := mk(), mk()
	fr := NewShardedFaultLockstep(pf, equivCfg(pf, g.Clone(), seed), k)
	defer fr.Close()
	ref := NewReferenceFaultLockstep(pr, equivCfg(pr, g.Clone(), seed))
	n := g.N()
	converge := func(step, rounds int) {
		t.Helper()
		r1, err1 := fr.Lockstep().ConvergeCtx(context.Background(), rounds)
		r2, err2 := ref.Lockstep().ConvergeCtx(context.Background(), rounds)
		if err1 != nil || err2 != nil || r1 != r2 {
			t.Fatalf("step %d: frontier %v (%v), reference %v (%v)", step, r1, err1, r2, err2)
		}
		if !slices.Equal(fr.Config().States, ref.Config().States) {
			t.Fatalf("step %d: states diverged:\nfrontier:  %v\nreference: %v", step, fr.Config().States, ref.Config().States)
		}
	}
	for i := 0; i+2 < len(script); i += 3 {
		v, b := graph.NodeID(int(script[i+1])%n), int(script[i+2])
		nbrs := fr.Topology().Neighbors(v)
		switch script[i] % 6 {
		case 0:
			s := pf.Random(v, nbrs, rand.New(rand.NewSource(int64(b))))
			fr.WriteState(v, s)
			ref.WriteState(v, s)
		case 1:
			if w := graph.NodeID(b % n); w != v {
				e, present := graph.NewEdge(v, w), !fr.Topology().HasEdge(v, w)
				fr.SetLink(e, present)
				ref.SetLink(e, present)
			}
		case 2:
			if len(nbrs) > 0 {
				e := graph.NewEdge(v, nbrs[b%len(nbrs)])
				fr.DropLink(e, 1+b%3)
				ref.DropLink(e, 1+b%3)
			}
		case 3:
			fr.Freeze(v, 1+b%3)
			ref.Freeze(v, 1+b%3)
		case 4: // one round that ages the pins
			if m1, m2 := fr.Step(), ref.Step(); m1 != m2 || !slices.Equal(fr.Config().States, ref.Config().States) {
				t.Fatalf("step %d: frontier moved %d, reference %d, or the states diverged", i/3, m1, m2)
			}
		default:
			converge(i/3, 1+b%4)
		}
	}
	converge(len(script)/3, 8*n+16)
}
