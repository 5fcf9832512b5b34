package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		slice:      64,
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
