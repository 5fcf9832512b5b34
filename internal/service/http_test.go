package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestListPagination(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	for i := 0; i < 5; i++ {
		pathTenant(t, h, fmt.Sprintf("p%d", i), ProtocolSMM, 4)
	}
	var page struct {
		Total   int            `json:"total"`
		Offset  int            `json:"offset"`
		Tenants []TenantStatus `json:"tenants"`
	}
	code, _ := doJSON(t, h, "GET", "/v1/tenants?limit=2&offset=1", nil, &page)
	if code != http.StatusOK || page.Total != 5 || len(page.Tenants) != 2 {
		t.Fatalf("pagination: code %d page %+v", code, page)
	}
	// Sorted, stable order: offset 1 limit 2 over p0..p4 is p1, p2.
	if page.Tenants[0].ID != "p1" || page.Tenants[1].ID != "p2" {
		t.Fatalf("page order: %s, %s", page.Tenants[0].ID, page.Tenants[1].ID)
	}
	// Past-the-end offset degrades to an empty page, not an error.
	code, _ = doJSON(t, h, "GET", "/v1/tenants?limit=10&offset=99", nil, &page)
	if code != http.StatusOK || len(page.Tenants) != 0 {
		t.Fatalf("past-end pagination: code %d len %d", code, len(page.Tenants))
	}
}

// TestListPaginationExtremes serves the list over a real server with
// every pairing of extreme limits and offsets: each must answer 200 with
// the page clamped into [0, total]. A limit near MaxInt64 once made
// offset+limit overflow, and the handler panicked on the slice; net/http
// turned that into a dropped connection.
func TestListPaginationExtremes(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	const total = 3
	for i := range total {
		pathTenant(t, h, fmt.Sprintf("e%d", i), ProtocolSMM, 4)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	values := []string{"9223372036854775807", "-9223372036854775808", "-1", "0", "1", strconv.Itoa(total), strconv.Itoa(total + 1), "x"}
	// want clamps one value the way the endpoint must: unparsable means
	// the default, then lo ≤ v ≤ hi.
	want := func(raw string, def, lo, hi int) int {
		v, err := strconv.Atoi(raw)
		if err != nil {
			v = def
		}
		return min(max(v, lo), hi)
	}
	for _, limit := range values {
		for _, offset := range values {
			resp, err := srv.Client().Get(srv.URL + "/v1/tenants?limit=" + limit + "&offset=" + offset)
			if err != nil {
				t.Errorf("limit=%s offset=%s: %v", limit, offset, err)
				continue
			}
			var page struct {
				Total   int            `json:"total"`
				Offset  int            `json:"offset"`
				Tenants []TenantStatus `json:"tenants"`
			}
			err = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
			wantOff := want(offset, 0, 0, total)
			wantLen := want(limit, 100, 1, total-wantOff)
			if resp.StatusCode != http.StatusOK || err != nil || page.Total != total || page.Offset != wantOff || len(page.Tenants) != wantLen {
				t.Errorf("limit=%s offset=%s: status %d err %v page %+v, want offset %d and %d tenants",
					limit, offset, resp.StatusCode, err, page, wantOff, wantLen)
				continue
			}
			for i, st := range page.Tenants {
				if id := fmt.Sprintf("e%d", wantOff+i); st.ID != id {
					t.Errorf("limit=%s offset=%s: tenant %d is %s, want %s", limit, offset, i, st.ID, id)
				}
			}
		}
	}
}

func TestCreateValidation(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	cases := []struct {
		name string
		req  createRequest
	}{
		{"empty id", createRequest{Protocol: ProtocolSMM, N: 4}},
		{"bad id chars", createRequest{ID: "a/../b", Protocol: ProtocolSMM, N: 4}},
		{"unknown protocol", createRequest{ID: "x", Protocol: "tsp", N: 4}},
		{"zero n", createRequest{ID: "x", Protocol: ProtocolSMM, N: 0}},
		{"self loop", createRequest{ID: "x", Protocol: ProtocolSMM, N: 4, Edges: [][2]int{{1, 1}}}},
		{"edge out of range", createRequest{ID: "x", Protocol: ProtocolSMM, N: 4, Edges: [][2]int{{0, 9}}}},
		{"edge past 32 bits", createRequest{ID: "x", Protocol: ProtocolSMM, N: 4, Edges: [][2]int{{1 << 32, 1}}}},
	}
	for _, tc := range cases {
		if code, _ := doJSON(t, h, "POST", "/v1/tenants", tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}

func TestMutationValidation(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	pathTenant(t, h, "v", ProtocolSMM, 4)
	cases := []struct {
		name string
		m    Mutation
	}{
		{"unknown op", Mutation{Op: "unmatch_everything"}},
		{"missing operands", Mutation{Op: OpAddEdge}},
		{"self loop", Mutation{Op: OpAddEdge, U: intp(1), V: intp(1)}},
		{"out of range", Mutation{Op: OpRemoveEdge, U: intp(0), V: intp(7)}},
		{"empty corrupt", Mutation{Op: OpCorrupt}},
		{"corrupt out of range", Mutation{Op: OpCorrupt, Nodes: []int{-1}}},
		{"converge via mutations", Mutation{Op: OpConverge}},
	}
	for _, tc := range cases {
		if code, _ := doJSON(t, h, "POST", "/v1/tenants/v/mutations", tc.m, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Validation failures never consume sequence numbers.
	var st TenantStatus
	doJSON(t, h, "GET", "/v1/tenants/v", nil, &st)
	if st.Seq != 0 {
		t.Fatalf("failed mutations advanced seq to %d", st.Seq)
	}
}

// TestRequestLimits pins what one mutation or converge request may make
// a tenant hold: a body past the tenant's size limit is 413, a key past
// maxKeyLen bytes or a node list longer than n is 400, and none of them
// consumes a seq. Requests at the limits still go through.
func TestRequestLimits(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	const n = 8
	pathTenant(t, h, "lim", ProtocolSMM, n)
	key := func(size int) string { return strings.Repeat("k", size) }
	nodes := func(k int) string { return strings.TrimSuffix(strings.Repeat("3,", k), ",") }
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"1 MiB key", "mutations", `{"op":"add_edge","u":0,"v":2,"key":"` + key(1<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"key past maxKeyLen", "mutations", `{"op":"add_edge","u":0,"v":2,"key":"` + key(maxKeyLen+1) + `"}`, http.StatusBadRequest},
		{"n+1 corrupt nodes", "mutations", `{"op":"corrupt","nodes":[` + nodes(n+1) + `]}`, http.StatusBadRequest},
		{"1 MiB of whitespace", "mutations", `{"op":"add_edge","u":0,"v":2` + strings.Repeat(" ", 1<<20) + `}`, http.StatusRequestEntityTooLarge},
		{"converge 1 MiB key", "converge", `{"key":"` + key(1<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"converge key past maxKeyLen", "converge", `{"key":"` + key(maxKeyLen+1) + `"}`, http.StatusBadRequest},
		{"key at maxKeyLen", "mutations", `{"op":"add_edge","u":0,"v":2,"key":"` + key(maxKeyLen) + `"}`, http.StatusOK},
		{"n corrupt nodes", "mutations", `{"op":"corrupt","nodes":[` + nodes(n) + `]}`, http.StatusOK},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/tenants/lim/"+tc.path, strings.NewReader(tc.body)))
		if w.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, w.Code, strings.TrimSpace(w.Body.String()), tc.want)
		}
	}
	var st TenantStatus
	if doJSON(t, h, "GET", "/v1/tenants/lim", nil, &st); st.Seq != 2 {
		t.Fatalf("seq %d after two accepted requests", st.Seq)
	}
}

func TestNoOpMutationsJournaled(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	pathTenant(t, h, "noop", ProtocolSMM, 4)
	// Adding an existing edge and removing an absent one both succeed
	// (idempotent topology ops) and still consume a seq — the journal
	// records intent, not diffs.
	var res MutationResult
	if code, _ := doJSON(t, h, "POST", "/v1/tenants/noop/mutations",
		Mutation{Op: OpAddEdge, U: intp(0), V: intp(1)}, &res); code != http.StatusOK || res.Seq != 1 {
		t.Fatalf("re-add existing edge: code %d res %+v", code, res)
	}
	if code, _ := doJSON(t, h, "POST", "/v1/tenants/noop/mutations",
		Mutation{Op: OpRemoveEdge, U: intp(0), V: intp(3)}, &res); code != http.StatusOK || res.Seq != 2 {
		t.Fatalf("remove absent edge: code %d res %+v", code, res)
	}
}

func TestNotFoundRoutes(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	pathTenant(t, h, "nf", ProtocolSMM, 4)
	for _, path := range []string{
		"/v1/tenants/ghost",
		"/v1/tenants/ghost/membership",
		"/v1/tenants/nf/nodes/99",
	} {
		if code, _ := doJSON(t, h, "GET", path, nil, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
}

func TestHealthAndVarz(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	if code, _ := doJSON(t, h, "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	pathTenant(t, h, "z", ProtocolSMI, 4)
	var vz Vars
	if code, _ := doJSON(t, h, "GET", "/varz", nil, &vz); code != http.StatusOK || vz.Tenants != 1 {
		t.Fatalf("varz: code %d %+v", code, vz)
	}
	if vz.Requests == 0 {
		t.Fatal("request counter not incremented")
	}
}

// TestVarzJournalShape pins the JSON wire shape of the group-commit
// observability counters: the aggregate fsync total plus the per-tenant
// journal block (appends, fsyncs, batches, segment count, replayable
// suffix bytes, batch-size histogram). Dashboards key on these names.
func TestVarzJournalShape(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	if code, _ := doJSON(t, h, "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	pathTenant(t, h, "jz", ProtocolSMM, 6)
	var res MutationResult
	for i := 0; i < 3; i++ {
		m := Mutation{Op: OpCorrupt, Nodes: []int{i}}
		if code, _ := doJSON(t, h, "POST", "/v1/tenants/jz/mutations", m, &res); code != http.StatusOK {
			t.Fatalf("mutation %d: status %d", i, code)
		}
	}

	// Decode into loose maps so a renamed or dropped key fails here, not
	// in a consumer.
	var raw map[string]json.RawMessage
	if code, _ := doJSON(t, h, "GET", "/varz", nil, &raw); code != http.StatusOK {
		t.Fatalf("varz: %d", code)
	}
	var fsyncs int64
	if err := json.Unmarshal(raw["fsyncs"], &fsyncs); err != nil || fsyncs < 1 {
		t.Fatalf("varz fsyncs = %s (err %v), want a positive count", raw["fsyncs"], err)
	}
	var journal map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["journal"], &journal); err != nil {
		t.Fatalf("varz journal block: %v", err)
	}
	jz, ok := journal["jz"]
	if !ok {
		t.Fatalf("varz journal missing tenant jz: %v", journal)
	}
	for _, key := range []string{"appends", "fsyncs", "batches", "segments", "replay_suffix_bytes"} {
		var v int64
		if err := json.Unmarshal(jz[key], &v); err != nil {
			t.Fatalf("journal.jz.%s = %s: %v", key, jz[key], err)
		}
		if v < 1 {
			t.Fatalf("journal.jz.%s = %d, want >= 1 after 3 mutations", key, v)
		}
	}
	var hist []int64
	if err := json.Unmarshal(jz["batch_size_hist"], &hist); err != nil || len(hist) != 8 {
		t.Fatalf("journal.jz.batch_size_hist = %s (err %v), want 8 buckets", jz["batch_size_hist"], err)
	}
	var total int64
	for _, b := range hist {
		total += b
	}
	if total < 1 {
		t.Fatalf("batch_size_hist empty after 3 mutations: %v", hist)
	}
}

func TestConvergeEndpointDefaultsToBound(t *testing.T) {
	svc := newTestService(t, Options{})
	h := svc.Handler()
	st := pathTenant(t, h, "cv", ProtocolSMM, 6)
	var res MutationResult
	code, _ := doJSON(t, h, "POST", "/v1/tenants/cv/converge", convergeRequest{}, &res)
	if code != http.StatusOK || !res.Converged || !res.Legit {
		t.Fatalf("default converge: code %d res %+v", code, res)
	}
	if res.Bound != st.Bound {
		t.Fatalf("bound mismatch: %d vs %d", res.Bound, st.Bound)
	}
}
