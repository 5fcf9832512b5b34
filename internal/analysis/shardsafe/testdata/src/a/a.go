// Fixture for the shardsafe analyzer: well-disciplined shard kernels
// that must stay diagnostic-free, plus one violation per rule.
package a

// Local mirrors of the graph-layer types the matcher recognizes by
// name and shape.

type NodeID int32

type Graph struct {
	rows  []struct{ start, len, cap int32 }
	arena []NodeID
}

func (g *Graph) Neighbors(v NodeID) []NodeID {
	r := g.rows[v]
	return g.arena[r.start : r.start+r.len : r.start+r.len]
}

func (g *Graph) Degree(v NodeID) int         { return int(g.rows[v].len) }
func (g *Graph) N() int                      { return len(g.rows) }
func (g *Graph) AddEdge(u, v NodeID) bool    { return false }
func (g *Graph) RemoveEdge(u, v NodeID) bool { return false }
func (g *Graph) Compact()                    {}

type Frontier struct{ dirty []byte }

func (f *Frontier) Add(v int)             { f.dirty[v] = 1 }
func (f *Frontier) AddMask(v int, m byte) { f.dirty[v] |= m }
func (f *Frontier) Reset()                { clear(f.dirty) }

// ---------------------------------------------------------------------
// Good kernels: the real SMM/SMI shapes, zero diagnostics.

type Good struct{}

func (Good) CommitBatch(ids []NodeID, states, next []int32, moved []bool) int {
	n := 0
	for _, id := range ids {
		if moved[id] {
			states[id] = next[id]
			n++
		}
	}
	return n
}

func (Good) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	for _, id := range ids {
		if !moved[id] {
			continue
		}
		f.Add(int(id))
		row := g.Neighbors(id)
		for _, w := range row {
			if states[w] == states[id] {
				f.AddMask(int(w), 1)
			}
		}
	}
}

// MoveBatch reads pre-round states anywhere; only its use of the graph
// is checked.
func (Good) MoveBatch(ids []NodeID, g *Graph, states, next []int32, moved []bool) {
	for _, id := range ids {
		best := states[id]
		if g.Degree(id) > 0 && int(id) < g.N() {
			for _, w := range g.Neighbors(id) {
				best = max(best, states[w], states[states[w]])
			}
		}
		next[id], moved[id] = best, best != states[id]
	}
}

// ---------------------------------------------------------------------
// Bad kernels: one per rule.

type BadCommit struct{}

// CommitBatch touching slot 0 unconditionally races with the shard
// that owns node 0.
func (BadCommit) CommitBatch(ids []NodeID, states, next []int32, moved []bool) int {
	states[0] = next[0] // want `writes states at an index not derived from the shard's ids` `reads next at an index not derived from the shard's ids`
	n := 0
	for i := range states { // want `iterates over the whole state vector states instead of the shard's ids`
		states[i] = next[i] // want `writes states at an index not derived from the shard's ids` `reads next at an index not derived from the shard's ids`
		n++
	}
	return n
}

type BadMarkWrite struct{}

// MarkBatch writing post-round state breaks order-independence.
func (BadMarkWrite) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	for _, id := range ids {
		states[id] = 0 // want `writes post-round state states in the mark phase`
		f.Add(int(id))
	}
}

type BadMarkFrontier struct{}

// Only Add/AddMask may touch the frontier; Reset would erase other
// batches' marks, and unproven indices may cross shard ranges.
func (BadMarkFrontier) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	f.Reset() // want `calls Frontier.Reset in the mark phase; only Add and AddMask are sanctioned`
	for i := 0; i < len(ids); i++ {
		f.Add(i) // want `calls Frontier.Add with an index derived from neither the shard's ids nor the graph's rows`
	}
}

type BadMarkRead struct{}

// Reading state at a loop counter is not proven: i indexes the batch,
// not the node space.
func (BadMarkRead) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	for i := 0; i < len(states); i++ {
		if moved[i] { // want `reads moved at an index derived from neither the shard's ids nor the graph's rows`
			f.Add(int(ids[0]))
		}
	}
}

type BadMarkMutate struct{}

func mutate(g *Graph) {}

// Every shard reads the one graph, so an edit in the mark phase races
// with the other shards' row scans: only the read accessors are
// sanctioned, however the graph is reached.
func (BadMarkMutate) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	for _, id := range ids {
		for _, w := range g.Neighbors(id) {
			g.RemoveEdge(id, w) // want `uses Graph.RemoveEdge on the graph every shard reads; kernels may only read it through Neighbors, Degree and N`
		}
		f.Add(int(id))
	}
	h := g
	h.AddEdge(ids[0], ids[1]) // want `uses Graph.AddEdge on the graph every shard reads`
	compact := g.Compact      // want `uses Graph.Compact on the graph every shard reads`
	compact()
	mutate(g)    // want `passes the graph to a call; kernels may only read it through Neighbors, Degree and N`
	*g = Graph{} // want `writes through the graph every shard reads; kernels may only read it through Neighbors, Degree and N`
}

type BadMoveMutate struct{}

// The eval phase overlaps the other shards' row scans just as the mark
// phase does.
func (BadMoveMutate) MoveBatch(ids []NodeID, g *Graph, states, next []int32, moved []bool) {
	for _, id := range ids {
		g.AddEdge(id, 0) // want `uses Graph.AddEdge on the graph every shard reads`
		next[id], moved[id] = states[id], false
	}
}

type BadEscape struct{}

func consume(xs []int32)   {}
func consumeF(f *Frontier) {}

// Handing the state vector or the frontier to a helper escapes the
// discipline the analyzer can see.
func (BadEscape) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	consume(states) // want `passes the state vector states to a call, escaping the shard's write-ownership discipline`
	consumeF(f)     // want `passes the frontier to a call; dirtiness must flow through Frontier.Add/AddMask only`
}

// ---------------------------------------------------------------------
// Negative shape: a CommitBatch with a different signature is not a
// shard kernel and must be ignored.

type Unrelated struct{}

func (Unrelated) CommitBatch(names []string) int {
	names[0] = "x"
	return 0
}

// Suppression must silence a finding like any other analyzer's.

type Suppressed struct{}

func (Suppressed) MarkBatch(ids []NodeID, g *Graph, states []int32, moved []bool, f *Frontier) {
	//lint:ignore shardsafe scratch index proven owned by construction elsewhere
	f.Add(len(ids) - 1)
}
