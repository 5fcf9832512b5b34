package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/verify"
)

// TestAppendIDMatchesStrconv compares appendID with strconv.AppendInt
// on every value from -1 to 10^6, around the five- and nine-digit
// boundaries, at every power of two and of ten up to math.MaxInt32 and
// one below it, and at values strconv writes for it, each after a
// three-byte prefix with 0 to 8 bytes of spare capacity. Where the
// spare room holds the digits, the bytes must land in place.
func TestAppendIDMatchesStrconv(t *testing.T) {
	backing := make([]byte, 32)
	var want []byte
	check := func(v int) {
		want = strconv.AppendInt(want[:0], int64(v), 10)
		for spare := 0; spare <= 8; spare++ {
			b := append(backing[:0:3+spare], "ab,"...)
			got := appendID(b, v)
			if !bytes.Equal(got[3:], want) || string(got[:3]) != "ab," {
				t.Fatalf("appendID(%d) with %d spare bytes = %q, want %q", v, spare, got, "ab,"+string(want))
			}
			if len(want) <= spare && &got[0] != &backing[0] {
				t.Fatalf("appendID(%d) with %d spare bytes reallocated", v, spare)
			}
		}
	}
	for v := -1; v <= 1_000_000; v++ {
		check(v)
	}
	for _, r := range [][2]int{{9999, 10001}, {99999999, 100000001}} {
		for v := r[0]; v <= r[1]; v++ {
			check(v)
		}
	}
	for k := range 31 {
		check(1<<k - 1)
		check(1 << k)
	}
	for p := 10; p <= 1e9; p *= 10 {
		check(p - 1)
		check(p)
	}
	for _, v := range []int{math.MaxInt32, -2, -10, math.MinInt32, math.MaxInt32 + 1, math.MaxInt64, math.MinInt64} {
		check(v)
	}
}

// TestReadDuringEpochSeesItsFlags polls GET .../snapshot while five
// corrupt-all mutations run on an SMM tenant on a 3000-node path. Every
// body that says converged must hold a maximal matching of its own
// edges: a read may land before an entry's apply or after its epoch,
// never between the two with the previous epoch's flags.
func TestReadDuringEpochSeesItsFlags(t *testing.T) {
	const n = 3000
	svc := newTestService(t, Options{SnapshotEvery: -1})
	h := svc.Handler()
	pathTenant(t, h, "p", ProtocolSMM, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	done := make(chan struct{})
	var (
		wg          sync.WaitGroup
		bodies, bad int
		firstBad    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var v SnapshotView
			if body, err := get(h, "/v1/tenants/p/snapshot"); err != nil {
				t.Error(err)
				return
			} else if err := json.Unmarshal(body, &v); err != nil {
				t.Error(err)
				return
			}
			bodies++
			if !v.Converged {
				continue
			}
			if err := snapshotMatching(v); err != nil {
				bad++
				if firstBad == nil {
					firstBad = fmt.Errorf("seq %d: %w", v.Seq, err)
				}
			}
		}
	}()
	for i := range 5 {
		var res MutationResult
		code, _ := doJSON(t, h, "POST", "/v1/tenants/p/mutations", Mutation{Op: OpCorrupt, Nodes: all}, &res)
		if code != http.StatusOK || !res.Converged || !res.Legit {
			t.Errorf("corrupt %d: status %d, %+v", i, code, res)
		}
	}
	close(done)
	wg.Wait()
	if bad > 0 {
		t.Fatalf("%d of %d snapshot bodies said converged over states that are not a maximal matching; first: %v", bad, bodies, firstBad)
	}
}

// get returns the body of a GET that must answer 200; unlike getBody it
// may run off the test's goroutine.
func get(h http.Handler, path string) ([]byte, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, w.Code)
	}
	return w.Body.Bytes(), nil
}

// snapshotMatching checks that an SMM snapshot's states hold a maximal
// matching of its edges.
func snapshotMatching(v SnapshotView) error {
	var st []int
	if err := json.Unmarshal(v.States, &st); err != nil {
		return err
	}
	g := graph.New(len(st))
	for _, e := range v.Edges {
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	var matched []graph.Edge
	for u, p := range st {
		if p > u && st[p] == u {
			matched = append(matched, graph.NewEdge(graph.NodeID(u), graph.NodeID(p)))
		}
	}
	return verify.IsMaximalMatching(g, matched)
}

// TestMembershipNeverStale reads GET .../membership after every step of
// a script that reaches every engine mutator and compares each body
// with a fresh encode of the live states. Journaled steps go through
// the HTTP API: edge and node edits, a corrupt, a one-round converge,
// for SMI an epoch of more than convergeSlice rounds beside a reader,
// and a kill and reopen. Engine steps call one mutator under the tenant
// lock with no epoch after it, so each generation bump is the only
// thing that can expire the body it changes: a corrupt, a one-round
// converge, an SMM link removal whose repair unmatches a pair and a
// state restore. A flap that moves no state must keep the body.
func TestMembershipNeverStale(t *testing.T) {
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		t.Run(proto, func(t *testing.T) {
			const n = 600
			dir := t.TempDir()
			svc, err := Open(Options{DataDir: dir, SnapshotEvery: 4, RatePerSec: 1e9, Burst: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { svc.Kill() }()
			h := svc.Handler()
			pathTenant(t, h, "m", proto, n)
			tn, err := svc.Tenant("m")
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() []byte {
				tn.mu.RLock()
				defer tn.mu.RUnlock()
				return tn.eng.membership()
			}
			check := func(step string) {
				t.Helper()
				if got, want := getBody(t, h, "/v1/tenants/m/membership"), fresh(); !bytes.Equal(got, want) {
					t.Fatalf("after %s the membership is stale:\ngot  %.300s\nwant %.300s", step, got, want)
				}
			}
			post := func(step, path string, body any) MutationResult {
				t.Helper()
				var res MutationResult
				if code, _ := doJSON(t, h, "POST", "/v1/tenants/m/"+path, body, &res); code != http.StatusOK {
					t.Fatalf("%s: status %d", step, code)
				}
				check(step)
				return res
			}
			edit := func(step string, f func(eng tenantEngine)) {
				t.Helper()
				before := fresh()
				tn.mu.Lock()
				f(tn.eng)
				tn.mu.Unlock()
				if bytes.Equal(fresh(), before) {
					t.Fatalf("%s left the membership as it was, so it shows nothing", step)
				}
				check(step)
			}
			states := func() []byte {
				tn.mu.RLock()
				defer tn.mu.RUnlock()
				return tn.eng.appendStates(nil)
			}
			check("create")

			post("add_edge", "mutations", Mutation{Op: OpAddEdge, U: intp(0), V: intp(n - 1)})
			post("remove_edge", "mutations", Mutation{Op: OpRemoveEdge, U: intp(1), V: intp(2)})
			post("remove_node", "mutations", Mutation{Op: OpRemoveNode, U: intp(n / 2)})
			post("add_node", "mutations", Mutation{Op: OpAddNode, U: intp(n / 2), Nodes: []int{n/2 - 1, n/2 + 1}})
			post("corrupt", "mutations", Mutation{Op: OpCorrupt, Nodes: []int{3, 4, 5, 6, 7}})
			post("one-round converge", "converge", convergeRequest{Rounds: 1})

			saved := states()
			var corrupted []graph.NodeID
			for v := 10; v < 40; v++ {
				corrupted = append(corrupted, graph.NodeID(v))
			}
			edit("a corrupt with no epoch", func(eng tenantEngine) { eng.corrupt(corrupted, 7) })
			edit("a one-round converge", func(eng tenantEngine) {
				if _, moves, _, err := eng.converge(context.Background(), 1); err != nil || moves == 0 {
					t.Fatalf("one-round converge: %d moves, %v", moves, err)
				}
			})
			edit("a state restore", func(eng tenantEngine) {
				if err := eng.decodeStates(json.RawMessage(saved)); err != nil {
					t.Fatal(err)
				}
			})
			if proto == ProtocolSMM {
				edit("a link removal that unmatches a pair", func(eng tenantEngine) {
					e := matchedEdge(t, eng)
					eng.setLink(e, false)
				})
			}

			// A flap of an edge no state points along moves no state, so
			// the published body stays.
			cached := tn.membership.Load()
			tn.mu.Lock()
			e := unpointedEdge(t, tn.eng)
			gen := tn.eng.generation()
			tn.eng.setLink(e, false)
			tn.eng.setLink(e, true)
			moved := tn.eng.generation() != gen
			tn.mu.Unlock()
			check("a flap that moves no state")
			if moved || tn.membership.Load() != cached {
				t.Fatalf("a flap of %v that moved no state dropped the published body", e)
			}

			post("epoch after engine edits", "converge", convergeRequest{})
			if proto == ProtocolSMI {
				// Cutting the top edge of the path starts a wave that
				// flips every node below it, one per round.
				done := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
							if _, err := get(h, "/v1/tenants/m/membership"); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
				res := post("a long epoch", "mutations", Mutation{Op: OpRemoveEdge, U: intp(n - 2), V: intp(n - 1)})
				close(done)
				wg.Wait()
				if res.Rounds <= convergeSlice {
					t.Fatalf("the long epoch ran %d rounds, not more than %d", res.Rounds, convergeSlice)
				}
			}

			svc.Kill()
			svc, err = Open(Options{DataDir: dir, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			h = svc.Handler()
			if tn, err = svc.Tenant("m"); err != nil {
				t.Fatal(err)
			}
			check("kill and reopen")
			post("corrupt after reopen", "mutations", Mutation{Op: OpCorrupt, Nodes: []int{8, 9}})
		})
	}
}

// matchedEdge returns an edge whose endpoints point at each other in an
// SMM engine's states.
func matchedEdge(t *testing.T, eng tenantEngine) graph.Edge {
	t.Helper()
	st := eng.(*engine[core.Pointer]).cfg.States
	for v, p := range st {
		if !p.IsNull() && int(p) > v && st[p] == core.Pointer(v) {
			return graph.NewEdge(graph.NodeID(v), p.Node())
		}
	}
	t.Fatal("no matched pair")
	return graph.Edge{}
}

// unpointedEdge returns a live edge neither of whose endpoints points
// at the other (any edge, for SMI).
func unpointedEdge(t *testing.T, eng tenantEngine) graph.Edge {
	t.Helper()
	for u := range graph.NodeID(eng.n()) {
		for _, v := range eng.neighbors(u) {
			if e, ok := eng.(*engine[core.Pointer]); !ok || e.cfg.States[u] != core.Pointer(v) && e.cfg.States[v] != core.Pointer(u) {
				return graph.NewEdge(u, v)
			}
		}
	}
	t.Fatal("no edge without a pointer along it")
	return graph.Edge{}
}
