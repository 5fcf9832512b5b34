package service

import (
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// fullChecks reads the tenant's count of checks that scanned the whole
// configuration.
func fullChecks(t *testing.T, tn *tenant) int {
	t.Helper()
	tn.mu.RLock()
	defer tn.mu.RUnlock()
	switch e := tn.eng.(type) {
	case *engine[core.Pointer]:
		return e.fullChecks
	case *engine[bool]:
		return e.fullChecks
	}
	t.Fatalf("unknown engine %T", tn.eng)
	return 0
}

// TestLocalCheckFastPath pins where the per-epoch check scans the whole
// tenant: once for the init epoch and once per checkpoint, and nowhere
// else while every edit goes through the engine. A checker that always
// fell back to the full scan would pass every verdict test and lose the
// point of checking locally; this test fails it. An edit made behind
// the engine's back must still force a full scan.
func TestLocalCheckFastPath(t *testing.T) {
	const n, mutations, snapEvery = 2000, 100, 32
	rng := rand.New(rand.NewSource(5))
	g := graph.UnitDiskGrid(graph.RandomPoints(n, rng), math.Sqrt(10/(math.Pi*n)))
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		t.Run(proto, func(t *testing.T) {
			svc := newTestService(t, Options{SnapshotEvery: snapEvery, RatePerSec: 1e9, Burst: 1 << 30})
			h := svc.Handler()
			if code, _ := doJSON(t, h, "POST", "/v1/tenants", createRequest{
				ID: "d", Protocol: proto, N: n, Seed: 3, Edges: edges,
			}, nil); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			tn, err := svc.Tenant("d")
			if err != nil {
				t.Fatal(err)
			}
			mutate := func(m Mutation) {
				t.Helper()
				var res MutationResult
				if code, _ := doJSON(t, h, "POST", "/v1/tenants/d/mutations", m, &res); code != http.StatusOK || !res.Converged || !res.Legit {
					t.Fatalf("%s: status %d, result %+v", m.Op, code, res)
				}
			}
			// Two flaps in three, as bench/'s streams: cut an edge, then
			// restore it; otherwise corrupt one to three nodes.
			pending := -1
			for i := 0; i < mutations; i++ {
				if rng.Intn(3) < 2 {
					op := OpAddEdge
					if pending < 0 {
						op, pending = OpRemoveEdge, rng.Intn(len(edges))
					}
					e := edges[pending]
					if op == OpAddEdge {
						pending = -1
					}
					mutate(Mutation{Op: op, U: intp(e[0]), V: intp(e[1])})
					continue
				}
				nodes := make([]int, 1+rng.Intn(3))
				for j := range nodes {
					nodes[j] = rng.Intn(n)
				}
				mutate(Mutation{Op: OpCorrupt, Nodes: nodes})
			}
			if got, want := fullChecks(t, tn), 1+mutations/snapEvery; got != want {
				t.Fatalf("%d full scans over the init epoch and %d mutations, want %d", got, mutations, want)
			}

			// An edge added straight to the graph bypasses setLink, so the
			// checker cannot know its endpoints: the next check, at a seq
			// that is no checkpoint, must scan in full.
			tn.mu.Lock()
			u, v := graph.NodeID(0), graph.NodeID(1)
			for slices.Contains(tn.eng.neighbors(u), v) {
				v++
			}
			switch e := tn.eng.(type) {
			case *engine[core.Pointer]:
				e.cfg.G.AddEdge(u, v)
			case *engine[bool]:
				e.cfg.G.AddEdge(u, v)
			}
			tn.mu.Unlock()
			before := fullChecks(t, tn)
			mutate(Mutation{Op: OpCorrupt, Nodes: []int{int(u)}})
			if got := fullChecks(t, tn); got != before+1 {
				t.Fatalf("an unreported edge left the full-scan count at %d, want %d", got, before+1)
			}
		})
	}
}
