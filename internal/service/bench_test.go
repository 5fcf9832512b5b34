package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfstab/internal/graph"
)

// benchMutations drives a closed-loop mutation stream at the given
// queue depth straight into a tenant event loop (no HTTP, no rate
// limiter) and reports mutations/sec plus realized fsyncs per journal
// entry. Rising depth shows one fsync amortizing over the commands
// queued behind it.
func benchMutations(b *testing.B, depth int) {
	n := 2 * depth
	if n < 8 {
		n = 8
	}
	edges := make([][2]int, n)
	for v := 0; v < n; v++ {
		edges[v] = [2]int{v, (v + 1) % n}
	}
	meta := tenantMeta{ID: "bench", Protocol: ProtocolSMM, N: n, Seed: 1, Edges: edges}
	tn, err := newTenant(context.Background(), b.TempDir(), meta, tenantOptions{
		queueDepth: depth,
		snapEvery:  -1,
		segBytes:   64 << 20,
		now:        time.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { tn.close(); <-tn.dead }()

	b.ResetTimer()
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker toggles its own chord edge (distinct per
			// worker since n = 2·depth), so every mutation validates and
			// the topology stays bounded.
			u, v := (2*w)%n, (2*w+n/2)%n
			on := false
			for {
				if atomic.AddInt64(&next, 1) > int64(b.N) {
					return
				}
				op := OpAddEdge
				if on {
					op = OpRemoveEdge
				}
				on = !on
				uu, vv := u, v
				cmd := &command{mut: Mutation{Op: op, U: &uu, V: &vv}, reply: make(chan cmdResult, 1)}
				tn.cmds <- cmd
				if res := <-cmd.reply; res.Err != nil {
					b.Errorf("mutation: %v", res.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	jv := tn.journalVars()
	if jv.Appends > 0 {
		b.ReportMetric(float64(jv.Fsyncs)/float64(jv.Appends), "fsyncs/op")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "mut/s")
	}
}

func BenchmarkServiceMutations(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchMutations(b, depth) })
	}
}

// BenchmarkLarge_TenantCheckpointSMM30k times a checkpoint of a tenant
// the size of bench/'s mut-large ones: 30k nodes on a unit disk of mean
// degree 10 (~150k edges). Each iteration is one mutation through the
// event loop, a flap of one edge (alternately cut and restored), with a
// checkpoint after it: encode, write, fsync, rename, directory fsync
// and compaction. The drift stays within one edge, so the body is O(n).
func BenchmarkLarge_TenantCheckpointSMM30k(b *testing.B) { benchCheckpoint(b, ProtocolSMM) }

// BenchmarkLarge_TenantCheckpointSMI30k is the SMI twin of the SMM
// checkpoint row.
func BenchmarkLarge_TenantCheckpointSMI30k(b *testing.B) { benchCheckpoint(b, ProtocolSMI) }

// largeEdges is the topology of the 30k-node rows: a unit disk of mean
// degree 10 (~150k edges), the shape of bench/'s mut-large tenants.
func largeEdges(n int) [][2]int {
	g := graph.UnitDiskGrid(graph.RandomPoints(n, rand.New(rand.NewSource(1))), math.Sqrt(10/(math.Pi*float64(n))))
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	return edges
}

func benchCheckpoint(b *testing.B, protocol string) {
	const n = 30_000
	edges := largeEdges(n)
	meta := tenantMeta{ID: "ckpt", Protocol: protocol, N: n, Seed: 1, Edges: edges}
	tn, err := newTenant(context.Background(), b.TempDir(), meta, tenantOptions{
		queueDepth: 1,
		snapEvery:  1,
		now:        time.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { tn.close(); <-tn.dead }()
	flap := edges[len(edges)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := OpRemoveEdge
		if i%2 == 1 {
			op = OpAddEdge
		}
		cmd := &command{mut: Mutation{Op: op, U: &flap[0], V: &flap[1]}, reply: make(chan cmdResult, 1)}
		tn.cmds <- cmd
		if res := <-cmd.reply; res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkLarge_TenantCreateSMM30k times one create of a tenant the
// size of bench/'s mut-large ones through the HTTP handler, as POST
// /v1/tenants serves it: decoding the body, validating it, writing
// meta.json and the directory fsyncs, building the graph, opening the
// journal and running the init epoch, up to the 201. The tenant is
// deleted again off the clock.
func BenchmarkLarge_TenantCreateSMM30k(b *testing.B) { benchCreate(b, ProtocolSMM) }

// BenchmarkLarge_TenantCreateSMI30k is the SMI twin of the SMM create
// row.
func BenchmarkLarge_TenantCreateSMI30k(b *testing.B) { benchCreate(b, ProtocolSMI) }

func benchCreate(b *testing.B, protocol string) {
	const n = 30_000
	body, err := json.Marshal(tenantMeta{ID: "big", Protocol: protocol, N: n, Seed: 1, Edges: largeEdges(n)})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := Open(Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	h := svc.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(body)))
		if w.Code != http.StatusCreated {
			b.Fatalf("create: status %d: %s", w.Code, w.Body)
		}
		b.StopTimer()
		if err := svc.DeleteTenant("big"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
