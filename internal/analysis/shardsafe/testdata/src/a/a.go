// Fixture for the shardsafe analyzer: well-disciplined shard kernels
// that must stay diagnostic-free, plus one violation per rule.
package a

// Local mirrors of the graph-layer types the matcher recognizes by
// name and shape.

type NodeID int32

type CSR struct {
	offs []int32
	nbrs []NodeID
}

func (c *CSR) Rows() ([]int32, []NodeID) { return c.offs, c.nbrs }

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

func (Good) MarkBatch(ids []NodeID, csr *CSR, states []int32, moved []bool, f *Frontier) {
	offs, nbrs := csr.Rows()
	for _, id := range ids {
		if !moved[id] {
			continue
		}
		f.Add(int(id))
		row := nbrs[offs[id]:offs[id+1]]
		for _, w := range row {
			if states[w] == states[id] {
				f.AddMask(int(w), 1)
			}
		}
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
func (BadMarkWrite) MarkBatch(ids []NodeID, csr *CSR, states []int32, moved []bool, f *Frontier) {
	for _, id := range ids {
		states[id] = 0 // want `writes post-round state states in the mark phase`
		f.Add(int(id))
	}
}

type BadMarkFrontier struct{}

// Only Add/AddMask may touch the frontier; Reset would erase other
// batches' marks, and unproven indices may cross shard ranges.
func (BadMarkFrontier) MarkBatch(ids []NodeID, csr *CSR, states []int32, moved []bool, f *Frontier) {
	f.Reset() // want `calls Frontier.Reset in the mark phase; only Add and AddMask are sanctioned`
	for i := 0; i < len(ids); i++ {
		f.Add(i) // want `calls Frontier.Add with an index derived from neither the shard's ids nor the CSR rows`
	}
}

type BadMarkRead struct{}

// Reading state at a loop counter is not proven: i indexes the batch,
// not the node space.
func (BadMarkRead) MarkBatch(ids []NodeID, csr *CSR, states []int32, moved []bool, f *Frontier) {
	for i := 0; i < len(states); i++ {
		if moved[i] { // want `reads moved at an index derived from neither the shard's ids nor the CSR rows`
			f.Add(int(ids[0]))
		}
	}
}

type BadEscape struct{}

func consume(xs []int32)   {}
func consumeF(f *Frontier) {}

// Handing the state vector or the frontier to a helper escapes the
// discipline the analyzer can see.
func (BadEscape) MarkBatch(ids []NodeID, csr *CSR, states []int32, moved []bool, f *Frontier) {
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

func (Suppressed) MarkBatch(ids []NodeID, csr *CSR, states []int32, moved []bool, f *Frontier) {
	//lint:ignore shardsafe scratch index proven owned by construction elsewhere
	f.Add(len(ids) - 1)
}
