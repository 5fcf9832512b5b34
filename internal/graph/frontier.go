package graph

import (
	"encoding/binary"
	"math/bits"
)

// Frontier is the active-set scheduler's dirty set: the nodes that must
// be re-evaluated in the next round because their local view may have
// changed. It is a dense byte-per-node flag array: insertion is a plain
// one-byte store (no membership test, no queue, no read-modify-write —
// duplicates are free and marks to different nodes carry no data
// dependency between them, unlike a shared bitset word), and Drain scans
// the flags eight bytes at a time in index order, so members come out in
// ascending ID order with no sorting and executors iterate the frontier
// in the same order the full-scan loop visits nodes, keeping every
// observable output byte-identical. A drain costs O(n/8 + f) in the node
// count n and frontier size f.
//
// A Frontier is confined to its executor's coordinator; it is not safe
// for concurrent use.
type Frontier struct {
	// flags has one byte per node (padded to a multiple of 8 so Drain can
	// read whole words); nonzero means dirty.
	flags []byte
	// full marks "every node is dirty" without materializing the flags —
	// the state after construction and after an unattributed topology
	// change. Flags set while full are stray and discharged by the next
	// Drain or AddAll, which both clear the array.
	full bool
}

// NewFrontier returns a frontier over n nodes with every node dirty
// (round 0 must evaluate everyone: any node may be privileged in an
// arbitrary initial configuration).
func NewFrontier(n int) *Frontier {
	f := MakeFrontier(n)
	f.full = true
	return &f
}

// MakeFrontier returns an empty frontier over n nodes by value, for
// executors that hold one per shard inline instead of behind a pointer.
func MakeFrontier(n int) Frontier {
	return Frontier{flags: make([]byte, (n+7)&^7)}
}

// Add marks node v dirty. Unconditional on purpose: the store absorbs
// duplicates, and stray flags set while the frontier is full are cleared
// when the full state discharges — this is the hot-path insert of the
// install phase, so it carries no branches and no read-modify-write.
//
//selfstab:noalloc
func (f *Frontier) Add(v NodeID) {
	f.flags[v] = 1
}

// AddMask marks node v dirty when mark is true and is a no-op otherwise,
// compiled to an unconditional byte OR rather than a branch. Batch
// installers use it for per-neighbor dependency tests whose outcomes are
// too data-dependent for the branch predictor.
//
//selfstab:noalloc
func (f *Frontier) AddMask(v NodeID, mark bool) {
	var m byte
	if mark {
		m = 1
	}
	f.flags[v] |= m
}

// AddAll marks every node dirty — the response to any event whose
// footprint the caller cannot (or does not care to) bound, e.g. a
// topology edit made directly on the Graph rather than through a fault
// hook.
//
//selfstab:noalloc
func (f *Frontier) AddAll() {
	f.full = true
	f.clear()
}

// Len returns the number of dirty nodes, where n is the node count
// (needed because a full frontier stores no explicit flags).
//
//selfstab:noalloc
func (f *Frontier) Len(n int) int {
	if f.full {
		return n
	}
	c := 0
	for _, b := range f.flags {
		if b != 0 {
			c++
		}
	}
	return c
}

// Empty reports whether no node is dirty.
//
//selfstab:noalloc
func (f *Frontier) Empty() bool {
	if f.full {
		return false
	}
	for i := 0; i < len(f.flags); i += 8 {
		if binary.LittleEndian.Uint64(f.flags[i:]) != 0 {
			return false
		}
	}
	return true
}

// Drain appends the dirty set to buf[:0] in ascending ID order, resets
// the frontier to empty, and returns the slice. n is the node count
// used to expand a full frontier.
//
//selfstab:noalloc
func (f *Frontier) Drain(buf []NodeID, n int) []NodeID {
	buf = buf[:0]
	if f.full {
		f.full = false
		f.clear()
		for v := 0; v < n; v++ {
			//lint:ignore noalloc the drain contract requires cap(buf) >= the drained range, so append never grows
			buf = append(buf, NodeID(v))
		}
		return buf
	}
	for i := 0; i < len(f.flags); i += 8 {
		w := binary.LittleEndian.Uint64(f.flags[i:])
		if w == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(f.flags[i:], 0)
		// Little-endian load: byte k of the chunk sits in bits 8k..8k+7,
		// so walking set bits low to high yields ascending node IDs.
		for w != 0 {
			k := bits.TrailingZeros64(w) >> 3
			//lint:ignore noalloc the drain contract requires cap(buf) >= the drained range, so append never grows
			buf = append(buf, NodeID(i+k))
			w &^= 0xff << (uint(k) << 3)
		}
	}
	return buf
}

// Reset empties the frontier: every flag cleared and the full state
// discharged. Sharded executors use it where a full frontier would be
// ambiguous — per-shard frontiers never go full; the executor carries a
// single "evaluate everyone" flag instead (see internal/sim).
//
//selfstab:noalloc
func (f *Frontier) Reset() {
	f.full = false
	f.clear()
}

// DrainRange appends the dirty members of [lo, hi) to buf[:0] in
// ascending ID order, clears exactly that range, and returns the slice.
// It is the per-shard drain: concurrent DrainRange calls on one frontier
// are safe when their ranges do not overlap (byte stores on the shared
// edge words touch disjoint bytes). It panics on a full frontier — a
// full frontier has no materialized flags to scan, and sharded executors
// expand their full rounds explicitly.
//
//selfstab:noalloc
func (f *Frontier) DrainRange(buf []NodeID, lo, hi int) []NodeID {
	if f.full {
		panic("graph: DrainRange on a full frontier")
	}
	buf = buf[:0]
	i := lo
	// Byte steps up to the first word boundary, then whole words, then
	// byte steps over the tail: word loads never cross the range edges,
	// so a neighboring shard draining the adjacent range cannot observe
	// (or clobber) this range's flags.
	for ; i < hi && i%8 != 0; i++ {
		if f.flags[i] != 0 {
			f.flags[i] = 0
			//lint:ignore noalloc the drain contract requires cap(buf) >= the drained range, so append never grows
			buf = append(buf, NodeID(i))
		}
	}
	for ; i+8 <= hi; i += 8 {
		w := binary.LittleEndian.Uint64(f.flags[i:])
		if w == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(f.flags[i:], 0)
		for w != 0 {
			k := bits.TrailingZeros64(w) >> 3
			//lint:ignore noalloc the drain contract requires cap(buf) >= the drained range, so append never grows
			buf = append(buf, NodeID(i+k))
			w &^= 0xff << (uint(k) << 3)
		}
	}
	for ; i < hi; i++ {
		if f.flags[i] != 0 {
			f.flags[i] = 0
			//lint:ignore noalloc the drain contract requires cap(buf) >= the drained range, so append never grows
			buf = append(buf, NodeID(i))
		}
	}
	return buf
}

// Absorb ORs src's dirty flags over [lo, hi) into f and clears them in
// src. It is the cross-shard merge: after the mark phase each shard
// absorbs, from every other shard's frontier, the marks that landed in
// its own range. Concurrent Absorb calls are safe when their [lo, hi)
// ranges do not overlap, for the same edge-byte reason as DrainRange.
// It panics when src is full (a full source has no flags to move; the
// executor's full flag already covers every range).
//
//selfstab:noalloc
func (f *Frontier) Absorb(src *Frontier, lo, hi int) {
	if src.full {
		panic("graph: Absorb from a full frontier")
	}
	i := lo
	for ; i < hi && i%8 != 0; i++ {
		f.flags[i] |= src.flags[i]
		src.flags[i] = 0
	}
	for ; i+8 <= hi; i += 8 {
		w := binary.LittleEndian.Uint64(src.flags[i:])
		if w == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(src.flags[i:], 0)
		fw := binary.LittleEndian.Uint64(f.flags[i:])
		binary.LittleEndian.PutUint64(f.flags[i:], fw|w)
	}
	for ; i < hi; i++ {
		f.flags[i] |= src.flags[i]
		src.flags[i] = 0
	}
}

// clear zeroes the flags.
//
//selfstab:noalloc
func (f *Frontier) clear() {
	for i := range f.flags {
		f.flags[i] = 0
	}
}
