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
// dependency between them, unlike a shared bitset word), and DrainRange
// scans the flags eight bytes at a time in index order, so members come
// out in ascending ID order with no sorting and executors iterate the
// frontier in the same order the full-scan loop visits nodes, keeping
// every observable output byte-identical. A drain of [lo, hi) costs
// O((hi-lo)/8 + f) in the frontier size f.
//
// A Frontier has no "every node" state: executors that must evaluate
// everyone (round 0, an unreported topology edit) say so with a flag of their own
// and Reset the frontier instead. Concurrent use is safe only as
// DrainRange and Absorb spell out.
type Frontier struct {
	// flags has one byte per node; nonzero means dirty.
	flags []byte
}

// MakeFrontier returns an empty frontier over n nodes.
func MakeFrontier(n int) Frontier {
	return Frontier{flags: make([]byte, n)}
}

// Add marks node v dirty. Unconditional on purpose: the store absorbs
// duplicates — this is the hot-path insert of the install phase, so it
// carries no branches and no read-modify-write.
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

// Reset empties the frontier: every flag cleared. Executors call it when
// they schedule a full round, which subsumes any pending marks.
//
//selfstab:noalloc
func (f *Frontier) Reset() {
	for i := range f.flags {
		f.flags[i] = 0
	}
}

// DrainRange appends the dirty members of [lo, hi) to buf[:0] in
// ascending ID order, clears exactly that range, and returns the slice.
// It is the per-shard drain: concurrent DrainRange calls on one frontier
// are safe when their ranges do not overlap (byte stores on the shared
// edge words touch disjoint bytes).
//
//selfstab:noalloc
func (f *Frontier) DrainRange(buf []NodeID, lo, hi int) []NodeID {
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
//
//selfstab:noalloc
func (f *Frontier) Absorb(src *Frontier, lo, hi int) {
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
