package graph

import "sort"

// Partition splits a CSR snapshot into K contiguous node-ID ranges for
// sharded execution. Shard s owns the half-open range [Start(s),
// Start(s+1)); ranges are balanced by node count (|range| differs by at
// most one across shards), cover every node exactly once, and depend
// only on (n, K) — never on the edge set — so edge churn under fault
// injection cannot move a node between shards and dirty marks routed by
// owner stay valid across topology re-snapshots.
//
// Beyond the ranges, a Partition carries the boundary index the sharded
// executor's merge phase leans on: per shard, the halo — the sorted set
// of non-owned neighbors of owned nodes — and, per ordered shard pair
// (s, t), the subrange of t's range that s's halo touches. Everything a
// shard writes outside its own range during the mark phase lands inside
// its halo, so absorbing those spans is a complete cross-shard exchange.
//
// A single shard owns every node, so it has no halo and nothing to
// absorb: NewPartition(c, 1) skips the boundary index entirely and costs
// O(1) regardless of the graph.
//
// A Partition is immutable after NewPartition returns and safe to share
// between goroutines. Its ranges stay valid for any edge set; its halo
// index reflects the snapshot version it was built from, so executors
// with K > 1 rebuild it whenever the snapshot advances.
type Partition struct {
	starts []int32 // len K+1; shard s owns nodes [starts[s], starts[s+1])
	halos  [][]NodeID
	// spans[s*K+t] is the subrange [lo, hi) of shard t's node range that
	// shard s's halo covers (zero-length when s has no neighbor in t).
	spans [][2]int32
}

// NewPartition partitions c into k contiguous ranges. k is clamped to
// [1, max(1, n)]: more shards than nodes would leave empty ranges, and
// at least one shard always exists (even over the empty graph).
func NewPartition(c *CSR, k int) *Partition {
	n := c.N()
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	p := &Partition{starts: make([]int32, k+1)}
	for s := 0; s <= k; s++ {
		p.starts[s] = int32(s * n / k)
	}
	if k == 1 {
		return p
	}
	p.halos = make([][]NodeID, k)
	p.spans = make([][2]int32, k*k)
	for s := 0; s < k; s++ {
		p.halos[s] = buildHalo(c, int(p.starts[s]), int(p.starts[s+1]))
	}
	for s := 0; s < k; s++ {
		for t := 0; t < k; t++ {
			p.spans[s*k+t] = [2]int32{p.starts[t+1], p.starts[t]} // empty (lo > hi) until extended
		}
		for _, h := range p.halos[s] {
			t := p.Owner(h)
			sp := &p.spans[s*k+t]
			if int32(h) < sp[0] {
				sp[0] = int32(h)
			}
			if int32(h)+1 > sp[1] {
				sp[1] = int32(h) + 1
			}
		}
	}
	return p
}

// buildHalo collects the sorted, deduplicated neighbors of [lo, hi)
// that lie outside [lo, hi).
func buildHalo(c *CSR, lo, hi int) []NodeID {
	var halo []NodeID
	offs, nbrs := c.Rows()
	for v := lo; v < hi; v++ {
		for _, w := range nbrs[offs[v]:offs[v+1]] {
			if int(w) < lo || int(w) >= hi {
				halo = append(halo, w)
			}
		}
	}
	sort.Slice(halo, func(i, j int) bool { return halo[i] < halo[j] })
	out := halo[:0]
	for i, h := range halo {
		if i == 0 || h != halo[i-1] {
			out = append(out, h)
		}
	}
	return out
}

// K returns the shard count.
//
//selfstab:noalloc
func (p *Partition) K() int { return len(p.starts) - 1 }

// Range returns shard s's owned node range [lo, hi).
//
//selfstab:noalloc
func (p *Partition) Range(s int) (lo, hi NodeID) {
	return NodeID(p.starts[s]), NodeID(p.starts[s+1])
}

// Owner returns the shard owning node v. The binary search is written
// out (rather than sort.Search with a closure) so the hot path carries
// no function value and no capture.
//
//selfstab:noalloc
func (p *Partition) Owner(v NodeID) int {
	lo, hi := 0, p.K()-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.starts[mid+1] > int32(v) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Halo returns shard s's halo: the sorted non-owned neighbors of its
// owned nodes (none when one shard owns everything). Read-only.
//
//selfstab:noalloc
func (p *Partition) Halo(s int) []NodeID {
	if p.halos == nil {
		return nil
	}
	return p.halos[s]
}

// AbsorbSpan returns the subrange [lo, hi) of shard t's node range that
// shard s's halo covers: the only part of t's range shard s can mark
// during the install phase, hence the only part t must absorb from s at
// the round barrier. lo >= hi means no overlap.
//
//selfstab:noalloc
func (p *Partition) AbsorbSpan(s, t int) (lo, hi NodeID) {
	if p.spans == nil {
		return 0, 0
	}
	sp := p.spans[s*p.K()+t]
	return NodeID(sp[0]), NodeID(sp[1])
}
