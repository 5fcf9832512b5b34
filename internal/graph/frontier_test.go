package graph

import (
	"reflect"
	"testing"
)

// oddSizes are the word-scan edge cases the per-range frontier paths
// lean on: a single node, one short of a word, exactly one word, one
// over, and one short of two words.
var oddSizes = []int{1, 63, 64, 65, 127}

func drained(f *Frontier, n int) []NodeID {
	return f.DrainRange(nil, 0, n)
}

// drainedCopy peeks at membership without consuming the frontier.
func drainedCopy(f *Frontier, n int) []NodeID {
	members := drained(f, n)
	for _, v := range members {
		f.Add(v)
	}
	return members
}

func TestFrontierOddSizesDrainLenAddMask(t *testing.T) {
	for _, n := range oddSizes {
		f := MakeFrontier(n)
		if got := drained(&f, n); len(got) != 0 {
			t.Fatalf("n=%d: fresh frontier drained %v", n, got)
		}

		// Mark the boundary-prone IDs: first, last, and both sides of
		// every word edge within range.
		want := map[NodeID]bool{0: true, NodeID(n - 1): true}
		for _, v := range []int{62, 63, 64, 65} {
			if v < n {
				want[NodeID(v)] = true
			}
		}
		for v := range want {
			f.AddMask(v, true)
		}
		f.AddMask(0, true) // duplicate must not double-count
		if n > 1 {
			f.AddMask(1, false) // false mask must not mark
		}
		if got := drainedCopy(&f, n); len(got) != len(want) {
			t.Fatalf("n=%d: %d members, want %d", n, len(got), len(want))
		}
		got := drained(&f, n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: drain = %v, want %d members", n, got, len(want))
		}
		for i, v := range got {
			if !want[v] {
				t.Fatalf("n=%d: unexpected member %d", n, v)
			}
			if i > 0 && got[i-1] >= v {
				t.Fatalf("n=%d: drain not ascending: %v", n, got)
			}
		}
		if got := drained(&f, n); len(got) != 0 {
			t.Fatalf("n=%d: drain did not clear: %v", n, got)
		}
	}
}

func TestFrontierAddAllThenDrainIntoUndersizedBuffer(t *testing.T) {
	for _, n := range oddSizes {
		f := MakeFrontier(n)
		for v := 0; v < n; v++ {
			f.Add(NodeID(v))
		}
		// An undersized buffer must grow, not truncate: every node comes
		// out, ascending, regardless of the caller's capacity guess.
		buf := make([]NodeID, 0, 1)
		got := f.DrainRange(buf, 0, n)
		if len(got) != n {
			t.Fatalf("n=%d: drain into undersized buffer returned %d members", n, len(got))
		}
		for v := 0; v < n; v++ {
			if got[v] != NodeID(v) {
				t.Fatalf("n=%d: position %d holds %d", n, v, got[v])
			}
		}
		if got := drained(&f, n); len(got) != 0 {
			t.Fatalf("n=%d: marks survived the drain: %v", n, got)
		}
	}
}

func TestFrontierDedupAndOrder(t *testing.T) {
	f := MakeFrontier(100)
	for _, v := range []NodeID{42, 3, 99, 3, 42, 0, 64, 63} {
		f.Add(v)
	}
	got := drained(&f, 100)
	want := []NodeID{0, 3, 42, 63, 64, 99}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained %v want %v", got, want)
	}
	// The flags must be fully cleared: re-adding works afresh.
	f.Add(42)
	if got := drained(&f, 100); len(got) != 1 || got[0] != 42 {
		t.Fatalf("after re-add: %v", got)
	}
}

func TestFrontierDrainReusesBuffer(t *testing.T) {
	f := MakeFrontier(10)
	f.Add(1)
	buf := make([]NodeID, 0, 16)
	got := f.DrainRange(buf, 0, 10)
	if &got[:1][0] != &buf[:1][0] {
		t.Fatal("drain did not reuse the buffer")
	}
}

func TestFrontierDrainRange(t *testing.T) {
	for _, n := range oddSizes {
		// Split [0, n) at deliberately unaligned points and check that
		// per-range drains partition the full drain exactly.
		cuts := []int{0, n / 3, 2*n/3 + 1, n}
		f := MakeFrontier(n)
		marked := []NodeID{}
		for v := 0; v < n; v += 2 {
			f.Add(NodeID(v))
			marked = append(marked, NodeID(v))
		}
		var got []NodeID
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			if lo > hi {
				continue
			}
			part := f.DrainRange(nil, lo, hi)
			for _, v := range part {
				if int(v) < lo || int(v) >= hi {
					t.Fatalf("n=%d: DrainRange(%d,%d) leaked %d", n, lo, hi, v)
				}
			}
			got = append(got, part...)
		}
		if !reflect.DeepEqual(got, marked) {
			t.Fatalf("n=%d: ranged drains = %v, want %v", n, got, marked)
		}
		if rest := drained(&f, n); len(rest) != 0 {
			t.Fatalf("n=%d: ranged drains did not clear: %v", n, rest)
		}
		// Draining a clean subrange must not disturb marks outside it.
		f.Add(NodeID(n - 1))
		if part := f.DrainRange(nil, 0, n-1); len(part) != 0 {
			t.Fatalf("n=%d: clean range drained %v", n, part)
		}
		if rest := drained(&f, n); len(rest) != 1 {
			t.Fatalf("n=%d: outside mark lost", n)
		}
	}
}

func TestFrontierAbsorb(t *testing.T) {
	for _, n := range oddSizes {
		dst, src := MakeFrontier(n), MakeFrontier(n)
		for v := 0; v < n; v += 3 {
			src.Add(NodeID(v))
		}
		if n > 1 {
			dst.Add(NodeID(1)) // pre-existing mark must survive the OR
		}
		lo, hi := n/4, n-n/4
		dst.Absorb(&src, lo, hi)
		for v := 0; v < n; v++ {
			inWindow := v >= lo && v < hi
			wantSrc := v%3 == 0 && !inWindow
			wantDst := (v%3 == 0 && inWindow) || (v == 1 && n > 1)
			gotSrc := contains(drainedCopy(&src, n), NodeID(v))
			gotDst := contains(drainedCopy(&dst, n), NodeID(v))
			if gotSrc != wantSrc || gotDst != wantDst {
				t.Fatalf("n=%d lo=%d hi=%d node %d: src=%v (want %v) dst=%v (want %v)",
					n, lo, hi, v, gotSrc, wantSrc, gotDst, wantDst)
			}
		}
	}
}

func contains(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestFrontierReset(t *testing.T) {
	f := MakeFrontier(16)
	for _, v := range []NodeID{0, 3, 8, 15} {
		f.Add(v)
	}
	f.Reset()
	if got := drained(&f, 16); len(got) != 0 {
		t.Fatalf("drain after Reset = %v", got)
	}
}
