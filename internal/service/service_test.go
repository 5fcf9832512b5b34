package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestService opens a service over a temp dir with test-friendly
// options and registers cleanup.
func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	svc, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc
}

// doJSON performs one request against a handler and decodes the JSON
// response body into out (when non-nil), returning the status code.
func doJSON(t *testing.T, h http.Handler, method, path string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code, w.Result().Header
}

// pathTenant creates a path-graph tenant and waits for its init epoch.
func pathTenant(t *testing.T, h http.Handler, id, protocol string, n int) TenantStatus {
	t.Helper()
	var st TenantStatus
	code, _ := doJSON(t, h, "POST", "/v1/tenants", createRequest{
		ID: id, Protocol: protocol, N: n, Seed: 42, Edges: pathEdges(n),
	}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create tenant %s: status %d", id, code)
	}
	return st
}

func TestCreateMutateRead(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()

	st := pathTenant(t, h, "alpha", ProtocolSMM, 8)
	if !st.Converged || !st.Legit {
		t.Fatalf("init epoch did not converge legitimately: %+v", st)
	}
	if st.Bound != 9 {
		t.Fatalf("SMM bound for n=8 = %d, want 9", st.Bound)
	}

	var res MutationResult
	code, _ := doJSON(t, h, "POST", "/v1/tenants/alpha/mutations",
		Mutation{Op: OpAddEdge, U: intp(0), V: intp(7)}, &res)
	if code != http.StatusOK || !res.Converged || !res.Legit {
		t.Fatalf("add_edge: code %d res %+v", code, res)
	}
	if res.Rounds > st.Bound {
		t.Fatalf("epoch took %d rounds, bound %d", res.Rounds, st.Bound)
	}

	code, _ = doJSON(t, h, "POST", "/v1/tenants/alpha/mutations",
		Mutation{Op: OpCorrupt, Nodes: []int{2, 3, 4}}, &res)
	if code != http.StatusOK || !res.Converged || !res.Legit {
		t.Fatalf("corrupt: code %d res %+v", code, res)
	}

	var mem struct {
		Edges [][2]int `json:"edges"`
	}
	if code, _ := doJSON(t, h, "GET", "/v1/tenants/alpha/membership", nil, &mem); code != http.StatusOK {
		t.Fatalf("membership: status %d", code)
	}
	matched := map[int]bool{}
	for _, e := range mem.Edges {
		if matched[e[0]] || matched[e[1]] {
			t.Fatalf("membership is not a matching: %v", mem.Edges)
		}
		matched[e[0]], matched[e[1]] = true, true
	}

	var ni NodeInfo
	if code, _ := doJSON(t, h, "GET", "/v1/tenants/alpha/nodes/3", nil, &ni); code != http.StatusOK {
		t.Fatalf("node read: status %d", code)
	}
	if ni.Node != 3 || ni.Degree == 0 {
		t.Fatalf("node info: %+v", ni)
	}
	if ni.MatchedWith != nil {
		var peer NodeInfo
		doJSON(t, h, "GET", fmt.Sprintf("/v1/tenants/alpha/nodes/%d", *ni.MatchedWith), nil, &peer)
		if peer.MatchedWith == nil || *peer.MatchedWith != 3 {
			t.Fatalf("matched-with not symmetric: %+v vs %+v", ni, peer)
		}
	}
}

func TestSMITenantConverges(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	st := pathTenant(t, h, "mis", ProtocolSMI, 10)
	if !st.Converged || !st.Legit {
		t.Fatalf("SMI init epoch: %+v", st)
	}
	if st.Bound != 22 {
		t.Fatalf("SMI bound for n=10 = %d, want 22", st.Bound)
	}
	var res MutationResult
	code, _ := doJSON(t, h, "POST", "/v1/tenants/mis/mutations",
		Mutation{Op: OpCorrupt, Nodes: []int{0, 1, 2, 3, 4}}, &res)
	if code != http.StatusOK || !res.Converged || !res.Legit || res.Rounds > st.Bound {
		t.Fatalf("SMI corrupt epoch: code %d res %+v", code, res)
	}
	var mem struct {
		Nodes []int `json:"nodes"`
	}
	doJSON(t, h, "GET", "/v1/tenants/mis/membership", nil, &mem)
	if len(mem.Nodes) == 0 {
		t.Fatalf("empty independent set on a path graph")
	}
}

// TestBackpressure503 pins the degradation ladder's queue rung: with
// the event loop wedged, a full bounded queue returns 503 +
// Retry-After instead of queueing unboundedly.
func TestBackpressure503(t *testing.T) {
	// gather never waits for company: once the loop has dequeued the
	// wedge command it proceeds straight to prepare, so a command sent
	// afterwards provably stays in the queue.
	svc := newTestService(t, Options{QueueDepth: 1})
	h := svc.Handler()
	pathTenant(t, h, "bp", ProtocolSMM, 4)
	tn, err := svc.Tenant("bp")
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the loop: hold the tenant write lock so the next command
	// blocks inside prepare, then fill the 1-slot queue behind it with
	// direct sends (the loop is provably holding the first command once
	// it leaves the queue — only the loop dequeues).
	tn.mu.Lock()
	inflight := &command{mut: Mutation{Op: OpAddEdge, U: intp(0), V: intp(2)}, reply: make(chan cmdResult, 1)}
	queued := &command{mut: Mutation{Op: OpAddEdge, U: intp(1), V: intp(3)}, reply: make(chan cmdResult, 1)}
	tn.cmds <- inflight
	deadline := time.Now().Add(5 * time.Second)
	for len(tn.cmds) != 0 {
		if time.Now().After(deadline) {
			tn.mu.Unlock()
			t.Fatal("loop never picked up the wedge command")
		}
		time.Sleep(time.Millisecond)
	}
	// The loop dequeued the wedge but may still be inside gather's
	// non-blocking drain; give it time to reach prepare (where it blocks
	// on mu) before refilling the queue, so the refill cannot join the
	// wedge's batch.
	time.Sleep(100 * time.Millisecond)
	tn.cmds <- queued

	var errBody struct {
		Error string `json:"error"`
	}
	code, hdr := doJSON(t, h, "POST", "/v1/tenants/bp/mutations",
		Mutation{Op: OpRemoveEdge, U: intp(0), V: intp(1)}, &errBody)
	if code != http.StatusServiceUnavailable {
		tn.mu.Unlock()
		t.Fatalf("overload status = %d, want 503 (%+v)", code, errBody)
	}
	if hdr.Get("Retry-After") == "" {
		tn.mu.Unlock()
		t.Fatal("503 without Retry-After")
	}
	tn.mu.Unlock()
	for _, cmd := range []*command{inflight, queued} {
		if res := <-cmd.reply; res.Err != nil {
			t.Fatalf("wedged command failed: %v", res.Err)
		}
	}
	if svc.Varz().Overloaded == 0 {
		t.Fatal("overload counter not incremented")
	}
}

// TestRateLimit429 pins the token-bucket rung with a frozen clock.
func TestRateLimit429(t *testing.T) {
	clock := time.Unix(1000, 0)
	svc := newTestService(t, Options{
		RatePerSec: 1, Burst: 2,
		Now: func() time.Time { return clock },
	})
	h := svc.Handler()
	pathTenant(t, h, "rl", ProtocolSMM, 4)

	for i := 0; i < 2; i++ {
		var res MutationResult
		code, _ := doJSON(t, h, "POST", "/v1/tenants/rl/mutations",
			Mutation{Op: OpAddEdge, U: intp(0), V: intp(2)}, &res)
		if code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, code)
		}
	}
	code, hdr := doJSON(t, h, "POST", "/v1/tenants/rl/mutations",
		Mutation{Op: OpAddEdge, U: intp(1), V: intp(3)}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("exhausted bucket status = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if svc.Varz().RateLimited != 1 {
		t.Fatalf("rate-limited counter = %d, want 1", svc.Varz().RateLimited)
	}
}

// TestQuarantineIsolation pins panic isolation: a chaos-panicked tenant
// is quarantined and reported while its siblings keep serving.
func TestQuarantineIsolation(t *testing.T) {
	svc := newTestService(t, Options{EnableChaos: true})
	h := svc.Handler()
	pathTenant(t, h, "doomed", ProtocolSMM, 4)
	pathTenant(t, h, "healthy", ProtocolSMM, 4)

	code, _ := doJSON(t, h, "POST", "/v1/tenants/doomed/mutations",
		Mutation{Op: OpChaosPanic}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("chaos_panic status = %d, want 503", code)
	}

	var st TenantStatus
	doJSON(t, h, "GET", "/v1/tenants/doomed", nil, &st)
	if !strings.Contains(st.Quarantined, "chaos") {
		t.Fatalf("quarantine reason = %q", st.Quarantined)
	}
	code, _ = doJSON(t, h, "POST", "/v1/tenants/doomed/mutations",
		Mutation{Op: OpAddEdge, U: intp(0), V: intp(2)}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("mutation on quarantined tenant: status %d, want 503", code)
	}

	var res MutationResult
	code, _ = doJSON(t, h, "POST", "/v1/tenants/healthy/mutations",
		Mutation{Op: OpAddEdge, U: intp(0), V: intp(2)}, &res)
	if code != http.StatusOK || !res.Converged {
		t.Fatalf("healthy tenant after sibling quarantine: code %d res %+v", code, res)
	}
	vz := svc.Varz()
	if vz.Panics != 1 || vz.Quarantined != 1 {
		t.Fatalf("varz after panic: %+v", vz)
	}
}

func TestChaosPanicDisabledByDefault(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	pathTenant(t, h, "x", ProtocolSMM, 4)
	code, _ := doJSON(t, h, "POST", "/v1/tenants/x/mutations", Mutation{Op: OpChaosPanic}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("chaos_panic without EnableChaos: status %d, want 403", code)
	}
}

// TestGracefulCloseNoLeaksAndDoubleClose is the ISSUE's shutdown
// acceptance test: start, mutate under concurrent load, drain, and
// verify no goroutines leak; a second Close is a no-op.
func TestGracefulCloseNoLeaksAndDoubleClose(t *testing.T) {
	before := goruntime.NumGoroutine()

	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir, Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := svc.Handler()
	for i := 0; i < 3; i++ {
		pathTenant(t, h, fmt.Sprintf("t%d", i), ProtocolSMM, 16)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("t%d", (w+i)%3)
				doJSON(t, h, "POST", "/v1/tenants/"+id+"/mutations",
					Mutation{Op: OpCorrupt, Nodes: []int{i % 16}}, nil)
			}
		}(w)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("double Close: %v", err)
	}

	// Goroutine counts settle asynchronously (timer and test goroutines
	// come and go); retry before declaring a leak.
	var after int
	for i := 0; i < 100; i++ {
		after = goruntime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines: before=%d after=%d\n%s", before, after, buf[:n])
}

func TestTenantCapAndDuplicate(t *testing.T) {
	svc := newTestService(t, Options{MaxTenants: 1})
	h := svc.Handler()
	pathTenant(t, h, "only", ProtocolSMM, 4)

	code, _ := doJSON(t, h, "POST", "/v1/tenants",
		createRequest{ID: "only", Protocol: ProtocolSMM, N: 4}, nil)
	if code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", code)
	}
	code, hdr := doJSON(t, h, "POST", "/v1/tenants",
		createRequest{ID: "other", Protocol: ProtocolSMM, N: 4}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("cap create: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("cap 429 without Retry-After")
	}
}

func TestIdempotencyKeyDedup(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	pathTenant(t, h, "idem", ProtocolSMM, 6)

	var first, second MutationResult
	m := Mutation{Op: OpRemoveEdge, U: intp(2), V: intp(3), Key: "req-1"}
	if code, _ := doJSON(t, h, "POST", "/v1/tenants/idem/mutations", m, &first); code != http.StatusOK {
		t.Fatalf("first send failed")
	}
	if code, _ := doJSON(t, h, "POST", "/v1/tenants/idem/mutations", m, &second); code != http.StatusOK {
		t.Fatalf("retry send failed")
	}
	if !second.Duplicate || second.Seq != first.Seq {
		t.Fatalf("retry not deduplicated: first %+v second %+v", first, second)
	}
	var st TenantStatus
	doJSON(t, h, "GET", "/v1/tenants/idem", nil, &st)
	if st.Seq != first.Seq {
		t.Fatalf("duplicate advanced seq: %d vs %d", st.Seq, first.Seq)
	}
}

func TestDeleteTenant(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	pathTenant(t, h, "gone", ProtocolSMM, 4)
	req := httptest.NewRequest("DELETE", "/v1/tenants/gone", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if code, _ := doJSON(t, h, "GET", "/v1/tenants/gone", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted tenant still readable: %d", code)
	}
}

func intp(v int) *int { return &v }
