package graph

// Partition splits the node IDs 0..n-1 into K contiguous ranges for
// sharded execution. Shard s owns the half-open range Range(s); ranges
// are balanced by node count (|range| differs by at most one across
// shards), cover every node exactly once, and depend only on (n, K) —
// never on the edge set — so edge churn under fault injection cannot
// move a node between shards, dirty marks routed by owner stay valid
// across topology edits, and a link flip leaves the partition
// untouched.
//
// A Partition is immutable after NewPartition returns and safe to share
// between goroutines.
type Partition struct {
	starts []int32 // len K+1; shard s owns nodes [starts[s], starts[s+1])
}

// NewPartition partitions n nodes into k contiguous ranges. k is
// clamped to [1, max(1, n)]: more shards than nodes would leave empty
// ranges, and at least one shard always exists (even over no nodes).
func NewPartition(n, k int) *Partition {
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
	return p
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
