package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/mobility"
)

// chaosClient drives the API through a ChaosTransport, retrying dropped
// sends with the same idempotency key, the way a well-behaved client
// rides out a lossy network.
type chaosClient struct {
	t      *testing.T
	client *http.Client
	base   func() string
}

func (c *chaosClient) post(path string, body any, out any) int {
	c.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	for attempt := 0; attempt < 100; attempt++ {
		resp, err := c.client.Post(c.base()+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			continue // dropped by chaos; retry with the same key
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Degradation, not failure: back off and retry. During the
			// mid-schedule kill window this is the expected answer.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if out != nil && len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				c.t.Fatalf("POST %s: decode %q: %v", path, data, err)
			}
		}
		return resp.StatusCode
	}
	c.t.Fatalf("POST %s: no success after 100 attempts", path)
	return 0
}

func (c *chaosClient) get(path string, out any) int {
	c.t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		resp, err := c.client.Get(c.base() + path)
		if err != nil {
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		if out != nil && len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				c.t.Fatalf("GET %s: decode %q: %v", path, data, err)
			}
		}
		return resp.StatusCode
	}
	c.t.Fatalf("GET %s: no success after 100 attempts", path)
	return 0
}

// mutate sends one mutation with a unique idempotency key and asserts
// the epoch honored the paper's bound.
func (c *chaosClient) mutate(tenant string, m Mutation, key string, bound int) MutationResult {
	c.t.Helper()
	m.Key = key
	var res MutationResult
	code := c.post("/v1/tenants/"+tenant+"/mutations", m, &res)
	if code != http.StatusOK {
		c.t.Fatalf("mutation %s on %s: status %d", m.Op, tenant, code)
	}
	if !res.Duplicate && res.Rounds > bound {
		c.t.Fatalf("tenant %s epoch for %s took %d rounds, bound %d", tenant, m.Op, res.Rounds, bound)
	}
	if !res.Converged {
		c.t.Fatalf("tenant %s did not re-converge after %s: %+v", tenant, m.Op, res)
	}
	return res
}

// TestChaosTierEndToEnd is the resilience acceptance test: a generated
// fault schedule (crash/resurrect, corruption, mobility churn) is
// delivered through the HTTP API over a faulty network (drops,
// duplicates, reordered late duplicates), with one daemon kill/restart
// mid-schedule. Every tenant must re-converge within the paper's bound
// after every event, and snapshot+journal replay must reproduce the
// exact pre-kill state. CI runs this under -race.
func TestChaosTierEndToEnd(t *testing.T) {
	const (
		n     = 10
		seed  = 2026
		burst = 2
	)
	dir := t.TempDir()
	opts := Options{DataDir: dir, RatePerSec: 100000, Burst: 10000, SnapshotEvery: 4}
	svc, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	// The server survives daemon restarts via a swappable handler, like
	// a port that outlives the process behind it.
	var handler atomic.Value
	handler.Store(svc.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	chaos := NewChaosTransport(http.DefaultTransport, seed, 0.15, 0.15)
	cc := &chaosClient{t: t, client: &http.Client{Transport: chaos}, base: func() string { return srv.URL }}

	// Two tenants, one per protocol, over the same ring topology (a
	// ring stays connected under single node crashes, which the churn
	// generator requires of its graph).
	ring := make([][2]int, n)
	for v := 0; v < n; v++ {
		ring[v] = [2]int{v, (v + 1) % n}
	}
	tenants := map[string]string{"smm-ring": ProtocolSMM, "smi-ring": ProtocolSMI}
	bounds := map[string]int{}
	for id, proto := range tenants {
		var st TenantStatus
		code := cc.post("/v1/tenants", createRequest{ID: id, Protocol: proto, N: n, Seed: seed, Edges: ring}, &st)
		if code != http.StatusCreated && code != http.StatusConflict {
			t.Fatalf("create %s: status %d", id, code)
		}
		if code == http.StatusConflict {
			// A duplicated create beat us; read the status instead.
			cc.get("/v1/tenants/"+id, &st)
		}
		bounds[id] = st.Bound
	}

	// A concrete, replayable fault campaign over a mirror of the shared
	// topology. The mirror tracks what the daemon's graphs look like so
	// churn stays connectivity-preserving.
	mirror := graph.New(n)
	for _, e := range ring {
		mirror.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	sched := faults.Generate(seed, mirror, faults.GenParams{
		Events:   10,
		MaxBurst: burst,
		Kinds:    []faults.Kind{faults.Crash, faults.Corrupt, faults.Churn},
	})

	killAt := len(sched.Events) / 2
	for i, ev := range sched.Events {
		if i == killAt {
			// Mid-schedule daemon crash: abrupt kill, then restart from
			// the same data dir. The journal is the only survivor.
			preKill := map[string]string{}
			for id := range tenants {
				var view SnapshotView
				cc.get("/v1/tenants/"+id+"/snapshot", &view)
				raw, _ := json.Marshal(view)
				preKill[id] = string(raw)
			}
			svc.Kill()
			svc2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			svc = svc2
			handler.Store(svc.Handler())
			for id, want := range preKill {
				var view SnapshotView
				if code := cc.get("/v1/tenants/"+id+"/snapshot", &view); code != http.StatusOK {
					t.Fatalf("tenant %s missing after restart: %d", id, code)
				}
				raw, _ := json.Marshal(view)
				if string(raw) != want {
					t.Fatalf("tenant %s state after kill+replay diverged:\npre:  %s\npost: %s", id, want, raw)
				}
			}
		}
		applyChaosEvent(t, cc, mirror, ev, i, seed, tenants, bounds)
	}
	chaos.Flush()

	// Final verdict: every tenant converged, legitimate, and never over
	// bound across the whole campaign.
	for id := range tenants {
		var st TenantStatus
		if code := cc.get("/v1/tenants/"+id, &st); code != http.StatusOK {
			t.Fatalf("final status %s: %d", id, code)
		}
		if !st.Converged || !st.Legit || st.EpochsOverBound != 0 {
			t.Fatalf("tenant %s final state violates recovery bounds: %+v", id, st)
		}
		if st.MaxEpochRounds > st.Bound {
			t.Fatalf("tenant %s worst epoch %d exceeded bound %d", id, st.MaxEpochRounds, st.Bound)
		}
	}

	// The chaos was real: the transport must have injected faults.
	drops, dups, replays := chaos.Stats()
	if drops == 0 || dups == 0 {
		t.Fatalf("chaos transport injected nothing: drops=%d dups=%d replays=%d", drops, dups, replays)
	}

	// And one last crash: the final state survives a kill+reopen too.
	final := map[string]string{}
	for id := range tenants {
		var view SnapshotView
		cc.get("/v1/tenants/"+id+"/snapshot", &view)
		raw, _ := json.Marshal(view)
		final[id] = string(raw)
	}
	svc.Kill()
	svc3, err := Open(opts)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	handler.Store(svc3.Handler())
	defer svc3.Kill()
	for id, want := range final {
		var view SnapshotView
		cc.get("/v1/tenants/"+id+"/snapshot", &view)
		raw, _ := json.Marshal(view)
		if string(raw) != want {
			t.Fatalf("tenant %s final replay diverged:\nwant %s\ngot  %s", id, want, raw)
		}
	}
}

// applyChaosEvent translates one schedule event into API mutations for
// every tenant, keeping the client-side topology mirror in sync.
func applyChaosEvent(t *testing.T, cc *chaosClient, mirror *graph.Graph, ev faults.Event, idx int, seed int64, tenants map[string]string, bounds map[string]int) {
	t.Helper()
	key := func(id, step string) string { return fmt.Sprintf("ev%d-%s-%s", idx, id, step) }
	switch ev.Kind {
	case faults.Crash:
		// Crash = cut every incident link; resurrect = restore them and
		// wake with an arbitrary state. The service sees the same net
		// effect as the in-process fault engine's crash/resurrect pair.
		recorded := map[graph.NodeID][]int{}
		for _, v := range ev.Nodes {
			nbrs := append([]graph.NodeID(nil), mirror.Neighbors(v)...)
			ints := make([]int, len(nbrs))
			for i, w := range nbrs {
				ints[i] = int(w)
			}
			recorded[v] = ints
		}
		for id := range tenants {
			for _, v := range ev.Nodes {
				cc.mutate(id, Mutation{Op: OpRemoveNode, U: intp(int(v))}, key(id, fmt.Sprintf("down%d", v)), bounds[id])
			}
			for _, v := range ev.Nodes {
				cc.mutate(id, Mutation{Op: OpAddNode, U: intp(int(v)), Nodes: recorded[v]}, key(id, fmt.Sprintf("up%d", v)), bounds[id])
			}
			nodes := make([]int, len(ev.Nodes))
			for i, v := range ev.Nodes {
				nodes[i] = int(v)
			}
			cc.mutate(id, Mutation{Op: OpCorrupt, Nodes: nodes}, key(id, "resurrect"), bounds[id])
		}
		// The mirror is unchanged: every link came back.
	case faults.Corrupt:
		nodes := make([]int, len(ev.Nodes))
		for i, v := range ev.Nodes {
			nodes[i] = int(v)
		}
		for id := range tenants {
			cc.mutate(id, Mutation{Op: OpCorrupt, Nodes: nodes}, key(id, "corrupt"), bounds[id])
		}
	case faults.Churn:
		// Connectivity-preserving link churn, drawn deterministically
		// from the schedule seed and applied to the mirror first, then
		// echoed to every tenant.
		rng := rand.New(rand.NewSource(core.DeriveSeed(seed, []string{"chaos-churn"}, idx)))
		events := mobility.NewChurn(mirror, rng).Apply(ev.K)
		for id := range tenants {
			for j, me := range events {
				op := OpRemoveEdge
				if me.Add {
					op = OpAddEdge
				}
				cc.mutate(id, Mutation{Op: op, U: intp(int(me.Edge.U)), V: intp(int(me.Edge.V))}, key(id, fmt.Sprintf("churn%d", j)), bounds[id])
			}
		}
	default:
		t.Fatalf("schedule produced unrequested kind %v", ev.Kind)
	}
}
