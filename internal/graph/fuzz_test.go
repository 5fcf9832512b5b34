package graph

import (
	"encoding/json"
	"slices"
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

// FuzzShardPartition asserts the partitioner's structural invariants
// on arbitrary node and shard counts: contiguous balanced ranges, every
// node with exactly one owner.
func FuzzShardPartition(f *testing.F) {
	f.Add(uint16(0), uint8(1))
	f.Add(uint16(1), uint8(4))
	f.Add(uint16(64), uint8(3))
	f.Add(uint16(65), uint8(8))
	f.Add(uint16(200), uint8(16))
	f.Fuzz(func(t *testing.T, n uint16, k uint8) {
		checkPartition(t, int(n), NewPartition(int(n), int(k)))
	})
}

// FuzzGraphStore replays an edit script on the row store against a
// map-of-sets model. It decodes n ≤ 64 nodes and builds the start graph
// with FromEdges from edges (byte pairs, self-loops skipped, repeats and
// both orders kept as given), then applies edits (byte triples u, v,
// op): bit 0 of op adds the edge, otherwise removes it — no-op edits
// included — and bit 1 continues on a Clone. Few nodes and long scripts
// make rows outgrow their room, relocate and trigger compaction. After
// every edit the store must agree with the model on Neighbors, HasEdge
// (every pair), Degree, M and Edges, pass Validate, and have raised
// Version by exactly one if the edit changed the edge set, by zero
// otherwise.
func FuzzGraphStore(f *testing.F) {
	f.Add(uint8(4), []byte{}, []byte{0, 1, 3, 2, 3, 3, 0, 1, 2, 2, 3, 3})
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 0, 4}, []byte{0, 4, 2, 0, 4, 3, 1, 3, 1, 3, 4, 2})
	f.Add(uint8(64), []byte{0, 63, 5, 9, 9, 40, 63, 62}, []byte{0, 63, 2, 0, 63, 3, 63, 62, 0, 7, 7, 3, 1, 2, 1, 1, 2, 3})
	f.Add(uint8(1), []byte{0, 0}, []byte{0, 0, 3})
	f.Add(uint8(0), []byte{}, []byte{})
	f.Add(uint8(12), []byte{1, 0, 0, 1, 2, 3}, completeScript(12))
	star := []byte{}
	for v := byte(1); v < 40; v++ {
		star = append(star, 0, v)
	}
	f.Add(uint8(40), star, []byte{0, 20, 0, 20, 0, 1, 0, 39, 1, 5, 0, 2}) // rows past the linear-scan length
	f.Fuzz(func(t *testing.T, n uint8, edges, edits []byte) {
		nn := int(n) % 65
		if nn == 0 {
			return
		}
		node := func(b byte) NodeID { return NodeID(int(b) % nn) }
		model := make([]map[NodeID]bool, nn)
		for v := range model {
			model[v] = map[NodeID]bool{}
		}
		var es []Edge
		for i := 0; i+1 < len(edges); i += 2 {
			if u, v := node(edges[i]), node(edges[i+1]); u != v {
				es = append(es, Edge{u, v})
				model[u][v], model[v][u] = true, true
			}
		}
		g := FromEdges(nn, es)
		check := func(step int) {
			t.Helper()
			if err := Validate(g); err != nil {
				t.Fatalf("edit %d: %v", step, err)
			}
			var want []Edge
			m := 0
			for v := range model {
				id := NodeID(v)
				row := make([]NodeID, 0, len(model[v]))
				for w := range model[v] {
					row = append(row, w)
				}
				slices.Sort(row)
				if got := g.Neighbors(id); !slices.Equal(got, row) {
					t.Fatalf("edit %d: Neighbors(%d) = %v, model %v", step, v, got, row)
				}
				if g.Degree(id) != len(row) {
					t.Fatalf("edit %d: Degree(%d) = %d, model %d", step, v, g.Degree(id), len(row))
				}
				for w := range model {
					if g.HasEdge(id, NodeID(w)) != model[v][NodeID(w)] {
						t.Fatalf("edit %d: HasEdge(%d,%d) = %v, model %v", step, v, w, !model[v][NodeID(w)], model[v][NodeID(w)])
					}
				}
				for _, w := range row {
					if id < w {
						want = append(want, Edge{id, w})
					}
				}
				m += len(row)
			}
			if g.M() != m/2 || !slices.Equal(g.Edges(), want) {
				t.Fatalf("edit %d: M %d, edges %v; model %d, %v", step, g.M(), g.Edges(), m/2, want)
			}
		}
		check(-1)
		for i := 0; i+2 < len(edits); i += 3 {
			u, v, op := node(edits[i]), node(edits[i+1]), edits[i+2]
			if op&2 != 0 {
				g = g.Clone()
			}
			if u == v {
				continue
			}
			before, add := g.Version(), op&1 == 1
			var changed bool
			if add {
				changed = g.AddEdge(u, v)
			} else {
				changed = g.RemoveEdge(u, v)
			}
			if changed != (model[u][v] != add) {
				t.Fatalf("edit %d: edit of {%d,%d} reported %v, model had it %v", i/3, u, v, changed, model[u][v])
			}
			if add {
				model[u][v], model[v][u] = true, true
			} else {
				delete(model[u], v)
				delete(model[v], u)
			}
			if d := g.Version() - before; changed && d != 1 || !changed && d != 0 {
				t.Fatalf("edit %d: version moved by %d for a change=%v edit", i/3, d, changed)
			}
			check(i / 3)
		}
	})
}

// completeScript is an edit script adding every edge of K_n, one node's
// edges at a time, then removing and re-adding node 0's: enough growth
// to relocate every row several times and compact the arena.
func completeScript(n int) []byte {
	var s []byte
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			s = append(s, byte(u), byte(v), 1)
		}
	}
	for v := 1; v < n; v++ {
		s = append(s, 0, byte(v), 0)
	}
	for v := 1; v < n; v++ {
		s = append(s, byte(v), 0, 3)
	}
	return s
}
