package graph

import "sort"

// CSR is a compressed-sparse-row snapshot of a Graph's adjacency: every
// neighbor list, in ascending ID order, laid out back to back in one
// flat slice of 32-bit IDs, addressed by per-node offsets. Executors
// take one from Graph.Snapshot and read neighbor lists from it on the
// hot path — one contiguous allocation instead of n small ones, and no
// second pointer hop per node.
//
// A CSR is valid for its version only: Graph.Snapshot may advance the
// graph's cached snapshot in place by the one edit made since, so
// executors record the graph version their derived state reflects
// rather than trust a snapshot another executor may have advanced.
// Concurrent reads (the shard workers all read one CSR) are safe while
// no goroutine edits the graph or calls Snapshot.
type CSR struct {
	offs    []int32 // len n+1; neighbor list of v is nbrs[offs[v]:offs[v+1]]
	nbrs    []NodeID
	version uint64
}

// BuildCSR snapshots g's adjacency. The snapshot is tied to g's current
// Version.
func BuildCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		offs:    make([]int32, n+1),
		nbrs:    make([]NodeID, 0, 2*g.M()),
		version: g.Version(),
	}
	for v := 0; v < n; v++ {
		c.nbrs = append(c.nbrs, g.Neighbors(NodeID(v))...)
		c.offs[v+1] = int32(len(c.nbrs))
	}
	return c
}

// Snapshot returns a CSR of g's current adjacency, cached on the graph:
// as long as no edge mutates, every caller — several executors over one
// topology, run after run of an experiment — shares one snapshot instead
// of rebuilding it. A cached snapshot exactly one version behind is
// patched forward in place by g's last edit, reusing its arrays'
// capacity; after two or more edits, or with nothing cached, Snapshot
// builds a fresh one. Concurrent Snapshot calls are safe; concurrent
// calls with graph mutation are not (Graph mutation is not thread-safe
// in general).
func (g *Graph) Snapshot() *CSR {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	switch {
	case g.snap.fresh(g):
	case g.snap != nil && g.snap.version+1 == g.version:
		g.snap.patch(g.last, g.lastAdd, g.version)
	default:
		g.snap = BuildCSR(g)
	}
	return g.snap
}

// patch applies one edge edit to c in place and stamps it with version:
// add inserts e into both endpoints' rows, otherwise e is removed. Each
// endpoint costs one copy of the array suffix past its row position;
// the offsets past e.U move by ±1 and those past e.V by ±2 in total.
func (c *CSR) patch(e Edge, add bool, version uint64) {
	u, v := e.U, e.V // u < v, so u's row precedes v's
	iu := c.offs[u] + rowIndex(c.Neighbors(u), v)
	iv := c.offs[v] + rowIndex(c.Neighbors(v), u)
	d := int32(1)
	if add {
		c.nbrs = append(c.nbrs, 0, 0)
		copy(c.nbrs[iv+2:], c.nbrs[iv:])
		copy(c.nbrs[iu+1:iv+1], c.nbrs[iu:iv])
		c.nbrs[iu], c.nbrs[iv+1] = v, u
	} else {
		copy(c.nbrs[iu:], c.nbrs[iu+1:iv])
		copy(c.nbrs[iv-1:], c.nbrs[iv+1:])
		c.nbrs = c.nbrs[:len(c.nbrs)-2]
		d = -1
	}
	shiftOffsets(c.offs[u+1:v+1], d)
	shiftOffsets(c.offs[v+1:], 2*d)
	c.version = version
}

// rowIndex returns the position of x in the ascending row, or where it
// would be inserted.
func rowIndex(row []NodeID, x NodeID) int32 {
	return int32(sort.Search(len(row), func(i int) bool { return row[i] >= x }))
}

func shiftOffsets(offs []int32, d int32) {
	for i := range offs {
		offs[i] += d
	}
}

// fresh reports whether the snapshot still matches g: same node count
// and the same edge-mutation version.
func (c *CSR) fresh(g *Graph) bool {
	return c != nil && c.version == g.Version() && len(c.offs) == g.N()+1
}

// N returns the number of nodes in the snapshot.
//
//selfstab:noalloc
func (c *CSR) N() int { return len(c.offs) - 1 }

// Neighbors returns v's neighbor list in ascending ID order, as a
// subslice of the shared flat array. Callers must not modify it.
//
//selfstab:noalloc
func (c *CSR) Neighbors(v NodeID) []NodeID {
	return c.nbrs[c.offs[v]:c.offs[v+1]]
}

// Rows exposes the raw arrays for batch kernels that slice neighbor
// lists inline: the neighbor list of v is nbrs[offs[v]:offs[v+1]]. Both
// slices are read-only, and valid until the next Snapshot call advances
// the snapshot.
//
//selfstab:noalloc
func (c *CSR) Rows() (offs []int32, nbrs []NodeID) {
	return c.offs, c.nbrs
}
