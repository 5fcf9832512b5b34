package graph

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts the parser never panics and that everything
// it accepts is a valid graph that round-trips.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("3\n0 1\n1 2\n")
	f.Add("# comment\n2\n0 1\n")
	f.Add("")
	f.Add("0\n")
	f.Add("5\n0 1\n0 1\n")
	f.Add("1\n0 0\n")
	f.Add("4\n-1 2\n")
	f.Add("x\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if vErr := Validate(g); vErr != nil {
			t.Fatalf("accepted invalid graph: %v\ninput: %q", vErr, input)
		}
		var sb strings.Builder
		if wErr := WriteEdgeList(&sb, g); wErr != nil {
			t.Fatal(wErr)
		}
		back, rErr := ReadEdgeList(strings.NewReader(sb.String()))
		if rErr != nil || !g.Equal(back) {
			t.Fatalf("round trip failed: %v\ninput: %q", rErr, input)
		}
	})
}

// FuzzGraphJSON asserts the JSON decoder never panics and that accepted
// graphs are valid and round-trip.
func FuzzGraphJSON(f *testing.F) {
	f.Add(`{"n":3,"edges":[[0,1],[1,2]]}`)
	f.Add(`{"n":0,"edges":[]}`)
	f.Add(`{"n":-1}`)
	f.Add(`{"n":2,"edges":[[0,0]]}`)
	f.Add(`{"n":2,"edges":[[0,1],[1,0]]}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, input string) {
		var g Graph
		if err := json.Unmarshal([]byte(input), &g); err != nil {
			return
		}
		if vErr := Validate(&g); vErr != nil {
			t.Fatalf("accepted invalid graph: %v\ninput: %q", vErr, input)
		}
		data, mErr := json.Marshal(&g)
		if mErr != nil {
			t.Fatal(mErr)
		}
		var back Graph
		if uErr := json.Unmarshal(data, &back); uErr != nil || !g.Equal(&back) {
			t.Fatalf("round trip failed: %v", uErr)
		}
	})
}

// FuzzShardPartition asserts the partitioner's structural invariants on
// arbitrary graphs and shard counts: every node has exactly one owner,
// every cross-shard edge appears in both shards' halos, every halo
// member is covered by an absorb span, and reassembling the shard views
// reproduces the original CSR rows byte for byte. The graph is derived
// from the fuzzed bytes as a random edge set over a fuzzed node count.
func FuzzShardPartition(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(0))
	f.Add(uint8(1), uint8(4), int64(1))
	f.Add(uint8(64), uint8(3), int64(7))
	f.Add(uint8(65), uint8(8), int64(42))
	f.Add(uint8(200), uint8(16), int64(1234))
	f.Fuzz(func(t *testing.T, n uint8, k uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := New(int(n))
		for e := 0; e < int(n)*2; e++ {
			u := NodeID(rng.Intn(int(n) + 1))
			v := NodeID(rng.Intn(int(n) + 1))
			if u != v && int(u) < g.N() && int(v) < g.N() && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		c := g.Snapshot()
		p := NewPartition(c, int(k))
		checkPartition(t, c, p)
	})
}

// FuzzCSRPatch pins the in-place snapshot patch to a rebuild. It decodes
// a graph on n ≤ 64 nodes from edges (byte pairs), then applies edits
// (byte triples u, v, op): bit 0 of op adds the edge, otherwise removes
// it — no-op edits and self-loops included, the latter skipped — and
// bit 1 takes a Snapshot after the edit. Every snapshot taken must equal
// a fresh BuildCSR, and one taken at most one version after the last
// must be that same snapshot, advanced in place.
func FuzzCSRPatch(f *testing.F) {
	f.Add(uint8(4), []byte{}, []byte{0, 1, 3, 2, 3, 3, 0, 1, 2, 2, 3, 3})
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 0, 4}, []byte{0, 4, 2, 0, 4, 3, 1, 3, 1, 3, 4, 2})
	f.Add(uint8(64), []byte{0, 63, 5, 9, 9, 40, 63, 62}, []byte{0, 63, 2, 0, 63, 3, 63, 62, 0, 7, 7, 3, 1, 2, 1, 1, 2, 3})
	f.Add(uint8(1), []byte{0, 0}, []byte{0, 0, 3})
	f.Add(uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, n uint8, edges, edits []byte) {
		g := New(int(n) % 65)
		if g.N() == 0 {
			return
		}
		node := func(b byte) NodeID { return NodeID(int(b) % g.N()) }
		for i := 0; i+1 < len(edges); i += 2 {
			if u, v := node(edges[i]), node(edges[i+1]); u != v {
				g.AddEdge(u, v)
			}
		}
		prev, prevVersion := g.Snapshot(), g.Version()
		for i := 0; i+2 < len(edits); i += 3 {
			u, v, op := node(edits[i]), node(edits[i+1]), edits[i+2]
			switch {
			case u == v:
			case op&1 == 1:
				g.AddEdge(u, v)
			default:
				g.RemoveEdge(u, v)
			}
			if op&2 == 0 {
				continue
			}
			c := g.Snapshot()
			want := BuildCSR(g)
			if !c.fresh(g) || !reflect.DeepEqual(c.offs, want.offs) || !reflect.DeepEqual(c.nbrs, want.nbrs) {
				t.Fatalf("edit %d: snapshot %v %v, rebuild %v %v", i/3, c.offs, c.nbrs, want.offs, want.nbrs)
			}
			if g.Version() <= prevVersion+1 && c != prev {
				t.Fatalf("edit %d: at most one edit behind, but Snapshot replaced the snapshot", i/3)
			}
			prev, prevVersion = c, g.Version()
		}
	})
}
