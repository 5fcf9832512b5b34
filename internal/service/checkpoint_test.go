package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// snapshotView decodes the tenant's GET .../snapshot body.
func (t *tenant) snapshotView() SnapshotView {
	var v SnapshotView
	if err := json.Unmarshal(t.snapshotBody(), &v); err != nil {
		panic(err)
	}
	return v
}

// parentSnapshot is the checkpoint shape of the earlier format, which
// held the whole live topology as edges, before the states.
type parentSnapshot struct {
	Seq             int64           `json:"seq"`
	Rounds          int             `json:"rounds"`
	Moves           int             `json:"moves"`
	Converged       bool            `json:"converged"`
	EpochsOverBound int             `json:"epochs_over_bound"`
	MaxEpochRounds  int             `json:"max_epoch_rounds"`
	LastEpochRounds int             `json:"last_epoch_rounds"`
	Edges           [][2]int        `json:"edges"`
	States          json.RawMessage `json:"states"`
	DedupKeys       []dedupEntry    `json:"dedup_keys,omitempty"`
}

// parentSnapshotOf carries s over to the earlier format; a drift left
// beside the edges goes into the file too, as a forged one would.
func parentSnapshotOf(s tenantSnapshot) any {
	p := parentSnapshot{
		Seq: s.Seq, Rounds: s.Rounds, Moves: s.Moves, Converged: s.Converged,
		EpochsOverBound: s.EpochsOverBound, MaxEpochRounds: s.MaxEpochRounds,
		LastEpochRounds: s.LastEpochRounds, Edges: s.Edges, States: s.States,
		DedupKeys: s.DedupKeys,
	}
	if s.Added == nil && s.Removed == nil {
		return p
	}
	return struct {
		parentSnapshot
		Added [][2]int `json:"added"`
	}{p, s.Added}
}

// pathEdges is the path 0-1-...-(n-1), pathTenant's creation topology.
func pathEdges(n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	return edges
}

// engineView reads an engine's live topology, ascending and never nil,
// and its states through encoding/json. The caller holds the tenant
// lock, if any.
func engineView(t *testing.T, eng tenantEngine) ([][2]int, json.RawMessage) {
	t.Helper()
	var (
		g      *graph.Graph
		states any
	)
	switch e := eng.(type) {
	case *engine[core.Pointer]:
		g, states = e.cfg.G, e.cfg.States
	case *engine[bool]:
		g, states = e.cfg.G, e.cfg.States
	default:
		t.Fatalf("unknown engine %T", eng)
	}
	edges := [][2]int{}
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	raw, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	return edges, raw
}

// symDiff returns the edges of live missing from meta (added) and the
// edges of meta missing from live (removed), ascending and never nil.
func symDiff(meta, live [][2]int) (added, removed [][2]int) {
	norm := func(es [][2]int) map[[2]int]bool {
		set := map[[2]int]bool{}
		for _, e := range es {
			set[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
		}
		return set
	}
	inMeta, inLive := norm(meta), norm(live)
	added, removed = [][2]int{}, [][2]int{}
	for e := range inLive {
		if !inMeta[e] {
			added = append(added, e)
		}
	}
	for e := range inMeta {
		if !inLive[e] {
			removed = append(removed, e)
		}
	}
	less := func(es [][2]int) func(i, j int) bool {
		return func(i, j int) bool { return es[i][0] < es[j][0] || es[i][0] == es[j][0] && es[i][1] < es[j][1] }
	}
	sort.Slice(added, less(added))
	sort.Slice(removed, less(removed))
	return added, removed
}

// checkpointOracle is the checkpoint the tenant should write now, built
// from the live graph and states and encoded by json.Marshal.
func checkpointOracle(t *testing.T, tn *tenant, meta [][2]int) []byte {
	t.Helper()
	tn.mu.RLock()
	defer tn.mu.RUnlock()
	live, states := engineView(t, tn.eng)
	added, removed := symDiff(meta, live)
	var keys []dedupEntry
	for i := range tn.dedupR.n {
		keys = append(keys, tn.dedupR.at(i))
	}
	raw, err := json.Marshal(tenantSnapshot{
		Seq: tn.seq, Rounds: tn.roundsTotal, Moves: tn.movesTotal, Converged: tn.converged,
		EpochsOverBound: tn.epochsOverBound, MaxEpochRounds: tn.maxEpochRounds,
		LastEpochRounds: tn.lastEpochRounds, Added: added, Removed: removed,
		States: states, DedupKeys: keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// snapshotOracle is the GET .../snapshot body as writeJSON encodes a
// SnapshotView of the live tenant.
func snapshotOracle(t *testing.T, tn *tenant) []byte {
	t.Helper()
	tn.mu.RLock()
	defer tn.mu.RUnlock()
	edges, states := engineView(t, tn.eng)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SnapshotView{
		ID: tn.id, Protocol: tn.eng.protocol(), Seq: tn.seq, Converged: tn.converged,
		Edges: edges, States: states, Rounds: tn.roundsTotal, Moves: tn.movesTotal,
		MaxEpochRounds: tn.maxEpochRounds, EpochsOverBound: tn.epochsOverBound,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// membershipOracle is the GET .../membership body as encoding/json
// writes the matching (SMM) or the set (SMI).
func membershipOracle(t *testing.T, eng tenantEngine) []byte {
	t.Helper()
	var v any
	switch e := eng.(type) {
	case *engine[core.Pointer]:
		es := core.MatchingOf(e.cfg)
		sort.Slice(es, func(i, j int) bool { return es[i].U < es[j].U || es[i].U == es[j].U && es[i].V < es[j].V })
		out := make([][2]int, len(es))
		for i, ed := range es {
			out[i] = [2]int{int(ed.U), int(ed.V)}
		}
		v = struct {
			Edges [][2]int `json:"edges"`
		}{out}
	case *engine[bool]:
		out := []int{}
		for _, x := range core.SetOf(e.cfg) {
			out = append(out, int(x))
		}
		v = struct {
			Nodes []int `json:"nodes"`
		}{out}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// getBody returns the raw body of a GET.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, w.Code)
	}
	return w.Body.Bytes()
}

// TestCheckpointBodyMatchesEncodingJSON pins the appended bodies to the
// reflection encoder: the checkpoint file byte for byte against
// json.Marshal of tenantSnapshot (drift, states and a dedup window of
// keys json must escape), and GET .../snapshot and .../membership
// against encoding/json's bodies, for SMM and SMI tenants.
func TestCheckpointBodyMatchesEncodingJSON(t *testing.T) {
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		t.Run(proto, func(t *testing.T) {
			const n = 12
			dir := t.TempDir()
			svc := newTestService(t, Options{DataDir: dir, SnapshotEvery: 8})
			h := svc.Handler()
			pathTenant(t, h, "j", proto, n)
			script := mutationScript(n)
			for i, key := range []string{"a<b", "a>b", "a&b", `"q"`, `a\b`, "tab\tnl\n\x01", "a\u2028b", "\xff é\x7f"} {
				script[i].Key = key
			}
			applyScript(t, h, "j", script)
			tn, err := svc.Tenant("j")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(snapshotPath(tenantDir(dir, "j"), 8))
			if err != nil {
				t.Fatal(err)
			}
			if want := checkpointOracle(t, tn, pathEdges(n)); !bytes.Equal(raw, want) {
				t.Fatalf("checkpoint body differs from json.Marshal:\ngot  %s\nwant %s", raw, want)
			}
			if got, want := getBody(t, h, "/v1/tenants/j/snapshot"), snapshotOracle(t, tn); !bytes.Equal(got, want) {
				t.Fatalf("snapshot body differs from encoding/json:\ngot  %s\nwant %s", got, want)
			}
			tn.mu.RLock()
			want := membershipOracle(t, tn.eng)
			tn.mu.RUnlock()
			if got := getBody(t, h, "/v1/tenants/j/membership"); !bytes.Equal(got, want) {
				t.Fatalf("membership body differs from encoding/json:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// TestViewBodiesEdgeCases pins the appenders where encoding/json writes
// empty arrays: an empty matching or set (the clean states before any
// round) and an edgeless graph, for both protocols.
func TestViewBodiesEdgeCases(t *testing.T) {
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		for _, edges := range [][][2]int{nil, pathEdges(6)} {
			t.Run(fmt.Sprintf("%s/m=%d", proto, len(edges)), func(t *testing.T) {
				eng, err := newEngine(proto, 6, edges, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.close()
				for _, stage := range []string{"clean", "converged"} {
					if stage == "converged" {
						if _, _, stable, err := eng.converge(context.Background(), eng.bound()+1); err != nil || !stable {
							t.Fatalf("converge: stable %v, err %v", stable, err)
						}
					}
					live, states := engineView(t, eng)
					wantEdges, err := json.Marshal(live)
					if err != nil {
						t.Fatal(err)
					}
					if got := eng.appendEdges(nil); !bytes.Equal(got, wantEdges) {
						t.Fatalf("%s edges: got %s, want %s", stage, got, wantEdges)
					}
					if got := eng.appendStates(nil); !bytes.Equal(got, states) {
						t.Fatalf("%s states: got %s, want %s", stage, got, states)
					}
					if got, want := eng.appendMembership(nil), membershipOracle(t, eng); !bytes.Equal(got, want) {
						t.Fatalf("%s membership: got %s, want %s", stage, got, want)
					}
				}
			})
		}
	}
}

// TestCheckpointHoldsOnlyDrift pins the checkpoint's size to the drift
// from meta.json, not to the edge count: after k single-edge flaps on a
// 199-edge tenant it holds no edges field and at most k edges, exactly
// the ones whose presence changed for good.
func TestCheckpointHoldsOnlyDrift(t *testing.T) {
	const n = 200
	flaps := []Mutation{
		{Op: OpRemoveEdge, U: intp(0), V: intp(1)},
		{Op: OpAddEdge, U: intp(0), V: intp(1)},
		{Op: OpRemoveEdge, U: intp(5), V: intp(6)},
		{Op: OpAddEdge, U: intp(0), V: intp(100)},
		{Op: OpRemoveEdge, U: intp(7), V: intp(8)},
		{Op: OpAddEdge, U: intp(7), V: intp(8)},
	}
	dir := t.TempDir()
	svc := newTestService(t, Options{DataDir: dir, SnapshotEvery: len(flaps)})
	h := svc.Handler()
	pathTenant(t, h, "flap", ProtocolSMM, n)
	applyScript(t, h, "flap", flaps)
	raw, err := os.ReadFile(snapshotPath(tenantDir(dir, "flap"), int64(len(flaps))))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["edges"]; ok {
		t.Fatalf("checkpoint after %d flaps holds the whole edge list (%d bytes)", len(flaps), len(raw))
	}
	var snap tenantSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Added)+len(snap.Removed) > len(flaps) {
		t.Fatalf("checkpoint after %d flaps holds %d edges", len(flaps), len(snap.Added)+len(snap.Removed))
	}
	if !slices.Equal(snap.Added, [][2]int{{0, 100}}) || !slices.Equal(snap.Removed, [][2]int{{5, 6}}) {
		t.Fatalf("drift added %v removed %v, want [[0 100]] and [[5 6]]", snap.Added, snap.Removed)
	}
}

// TestRecoveryFailsOnMissingCheckpoint pins loud failure over a silent
// wrong state: once compaction has unlinked the segments a checkpoint
// covers, a deleted or unreadable checkpoint must fail recovery, not
// replay what is left of the journal from the creation state.
func TestRecoveryFailsOnMissingCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name      string
		snapEvery int
		damage    func(path string) error
		want      string
	}{
		{"deleted", 4, os.Remove, "journal entry seq 7 follows seq 0"},
		{"corrupt", 4, func(path string) error { return os.WriteFile(path, []byte(`{"seq":8,"sta`), 0o644) },
			"journal entry seq 7 follows seq 0"},
		// Every commit rotates and every mutation checkpoints, so the
		// journal holds no entry at all after the last compaction.
		{"journal empty", 1, os.Remove, "no readable checkpoint covers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{DataDir: dir, SegmentBytes: 150, SnapshotEvery: tc.snapEvery}
			if tc.snapEvery == 1 {
				opts.SegmentBytes = 1
			}
			svc, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			h := svc.Handler()
			pathTenant(t, h, "lost", ProtocolSMM, 8)
			applyScript(t, h, "lost", mutationScript(8))
			svc.Kill()

			tdir := tenantDir(dir, "lost")
			if nums, err := segmentNums(tdir); err != nil || nums[0] == 1 {
				t.Fatalf("segments %v (err %v): want segment 1 compacted away", nums, err)
			}
			if err := tc.damage(snapshotPath(tdir, 8)); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open after losing the checkpoint: err=%v, want one saying %q", err, tc.want)
			}
		})
	}
}

// TestParentFormatCheckpointReopens pins that data directories of the
// earlier checkpoint format still open: a checkpoint holding the whole
// edge list reopens to the state of an uninterrupted twin, and the
// drift the reopened tenant tracks from there is exact, so its next
// checkpoint is byte-identical to the twin's.
func TestParentFormatCheckpointReopens(t *testing.T) {
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		t.Run(proto, func(t *testing.T) {
			const n = 12
			script := mutationScript(n)
			next := Mutation{Op: OpRemoveEdge, U: intp(2), V: intp(3)}
			opts := func(dir string) Options { return Options{DataDir: dir, SnapshotEvery: 3} }

			dirA := t.TempDir()
			svcA, err := Open(opts(dirA))
			if err != nil {
				t.Fatal(err)
			}
			pathTenant(t, svcA.Handler(), "p", proto, n)
			applyScript(t, svcA.Handler(), "p", script)
			svcA.Kill()

			// Rewrite the newest checkpoint (seq 6) in the earlier format:
			// meta.json's path with the drift applied, ascending.
			path := snapshotPath(tenantDir(dirA, "p"), 6)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var snap tenantSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			live := map[[2]int]bool{}
			for _, e := range pathEdges(n) {
				live[e] = true
			}
			for _, e := range snap.Removed {
				delete(live, e)
			}
			for _, e := range snap.Added {
				live[e] = true
			}
			snap.Edges = [][2]int{}
			for e := range live {
				snap.Edges = append(snap.Edges, e)
			}
			sort.Slice(snap.Edges, func(i, j int) bool {
				a, b := snap.Edges[i], snap.Edges[j]
				return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
			})
			snap.Added, snap.Removed = nil, nil
			if raw, err = json.Marshal(parentSnapshotOf(snap)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			svcB := newTestService(t, opts(t.TempDir()))
			hB := svcB.Handler()
			pathTenant(t, hB, "p", proto, n)
			applyScript(t, hB, "p", script)
			svcA2 := newTestService(t, opts(dirA))
			hA2 := svcA2.Handler()
			if got, want := snapshotJSON(t, hA2, "p"), snapshotJSON(t, hB, "p"); !bytes.Equal(got, want) {
				t.Fatalf("reopened from an earlier-format checkpoint:\ngot  %s\nwant %s", got, want)
			}

			applyScript(t, hA2, "p", []Mutation{next})
			applyScript(t, hB, "p", []Mutation{next})
			tB, err := svcB.Tenant("p")
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(snapshotPath(tenantDir(dirA, "p"), 9))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(snapshotPath(tB.dir, 9))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint after the earlier-format restore:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// FuzzCheckpointDrift drives random add_edge, remove_edge, add_node and
// remove_node scripts, redundant edits included, over a random creation
// topology, with a checkpoint every third seq. Each checkpoint must be
// json.Marshal's encoding of the live tenant, so its added and removed
// are the symmetric difference of meta.json's edges and the live graph;
// and a kill plus reopen must land byte-identical to the uninterrupted
// run.
func FuzzCheckpointDrift(f *testing.F) {
	f.Add(int64(1), uint8(6), []byte{0, 0, 1, 1, 0, 1, 2, 2, 3, 3, 4, 0, 0, 0, 1, 4, 5, 0}, false)
	f.Add(int64(2), uint8(9), []byte{2, 1, 5, 3, 1, 0, 0, 2, 7, 1, 2, 7, 0, 2, 7, 3, 4, 0, 2, 4, 1}, true)
	f.Add(int64(3), uint8(4), []byte{1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1}, false)

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, script []byte, smi bool) {
		n := 3 + int(nRaw)%10
		proto := ProtocolSMM
		if smi {
			proto = ProtocolSMI
		}
		rng := rand.New(rand.NewSource(seed))
		var metaEdges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					metaEdges = append(metaEdges, [2]int{u, v})
				}
			}
		}
		meta := tenantMeta{ID: "drift", Protocol: proto, N: n, Seed: seed, Edges: metaEdges}
		opts := tenantOptions{snapEvery: 3, now: time.Now}
		dir := t.TempDir()
		ctx, kill := context.WithCancel(context.Background())
		defer kill()
		tn, err := newTenant(ctx, dir, meta, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(script) > 60 {
			script = script[:60]
		}
		for i := 0; i+2 < len(script); i += 3 {
			u, v := int(script[i+1])%n, int(script[i+2])%n
			if u == v {
				v = (u + 1) % n
			}
			var m Mutation
			switch script[i] % 4 {
			case 0:
				m = Mutation{Op: OpAddEdge, U: intp(u), V: intp(v)}
			case 1:
				m = Mutation{Op: OpRemoveEdge, U: intp(u), V: intp(v)}
			case 2:
				nbrs := []int{v}
				if w := (v + 1) % n; w != u {
					nbrs = append(nbrs, w)
				}
				m = Mutation{Op: OpAddNode, U: intp(u), Nodes: nbrs}
			default:
				m = Mutation{Op: OpRemoveNode, U: intp(u)}
			}
			cmd := &command{mut: m, reply: make(chan cmdResult, 1)}
			tn.cmds <- cmd
			res := <-cmd.reply
			if res.Err != nil {
				t.Fatalf("%s: %v", m.Op, res.Err)
			}
			if res.Seq%3 != 0 {
				continue
			}
			raw, err := os.ReadFile(snapshotPath(dir, res.Seq))
			if err != nil {
				t.Fatal(err)
			}
			if want := checkpointOracle(t, tn, metaEdges); !bytes.Equal(raw, want) {
				t.Fatalf("checkpoint at seq %d:\ngot  %s\nwant %s", res.Seq, raw, want)
			}
		}
		uninterrupted := tn.snapshotBody()
		kill()
		<-tn.dead

		tn2, err := newTenant(context.Background(), dir, meta, opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer func() { tn2.close(); <-tn2.dead }()
		if got := tn2.snapshotBody(); !bytes.Equal(got, uninterrupted) {
			t.Fatalf("kill and reopen diverged:\ngot  %s\nwant %s", got, uninterrupted)
		}
	})
}
