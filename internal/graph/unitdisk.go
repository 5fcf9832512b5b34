package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// Point is a position in the unit square used by geometric graphs.
type Point struct {
	X, Y float64
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// RandomPoints returns n uniform points in the unit square.
func RandomPoints(n int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	return pts
}

// unitDiskParallelMin is the number of points per build worker: a
// point set smaller than twice this is built on the caller's goroutine,
// and a larger one on up to GOMAXPROCS goroutines, at most one per this
// many points.
const unitDiskParallelMin = 4096

// UnitDisk returns the unit-disk graph of pts with communication radius
// r, the standard abstraction of an ad hoc radio network: nodes i != j
// are adjacent iff r >= 0 and pts[i].Dist2(pts[j]) <= r*r. So r = 0
// joins coincident points, a negative or NaN r gives no edges, and a
// point with a NaN coordinate has no neighbors.
//
// It runs in O(n·deg) expected time for points spread over the unit
// square, and lays the rows out the way FromEdges does: back to back in
// ID order, without free room. The points are bucketed by counting sort
// into a grid of square cells of side at least r, so every pair within
// distance r lies in the same or adjacent cells and each point tests
// only its 3x3 cell block. The side is also at least 1/√n, which keeps
// the grid at O(n) cells however small r is; points outside the unit
// square fall into the border cells. A first pass gathers each point's
// row to count it, which places every row in the arena; a second
// gathers the row again and writes it sorted straight into its place.
// Both passes split the grid into bands of cell rows, one per worker,
// and each point's row is written by its band's worker alone, so the
// graph does not depend on the worker count.
func UnitDisk(pts []Point, r float64) *Graph {
	workers := min(runtime.GOMAXPROCS(0), len(pts)/unitDiskParallelMin)
	return unitDisk(pts, r, max(workers, 1))
}

// UnitDiskGrid is UnitDisk under the name the million-node benchmarks
// call it by.
func UnitDiskGrid(pts []Point, r float64) *Graph { return UnitDisk(pts, r) }

// RandomUnitDisk places n uniform points in the unit square and grows the
// radius from r0 by a factor of 1.25 until the unit-disk graph is
// connected, returning the graph and the point set. It panics unless
// n > 0 and r0 is positive and finite: a radius of 0 or NaN would never
// grow.
func RandomUnitDisk(n int, r0 float64, rng *rand.Rand) (*Graph, []Point) {
	if n <= 0 {
		panic(fmt.Sprintf("graph: RandomUnitDisk(%d): need n > 0", n))
	}
	if !(r0 > 0) || math.IsInf(r0, 1) {
		panic(fmt.Sprintf("graph: RandomUnitDisk(%d, %v): need a finite radius > 0", n, r0))
	}
	pts := RandomPoints(n, rng)
	r := r0
	for {
		g := UnitDisk(pts, r)
		if IsConnected(g) {
			return g, pts
		}
		r *= 1.25
	}
}

// unitDisk is UnitDisk on the given number of workers.
func unitDisk(pts []Point, r float64, workers int) *Graph {
	n := len(pts)
	g := New(n)
	if n == 0 || !(r >= 0) {
		return g
	}
	d := newDiskGrid(pts, r)
	bands := d.bands(workers)
	// off[k] is first slot k's degree, then where its row starts. Slots
	// run in cell order, so their rows lie all over the store: each
	// band writes and reads them in a tight loop of its own, away from
	// the gathers, where the cache misses overlap.
	off := make([]int32, n)
	eachBand(bands, func(y0, y1 int) {
		var buf []NodeID
		d.eachPoint(y0, y1, func(k int32, runs *[4][2]int32) {
			buf = d.gather(buf, k, runs)
			off[k] = int32(len(buf))
		})
		for k := d.start[y0*d.cols]; k < d.start[y1*d.cols]; k++ {
			g.rows[d.ids[k]].len = off[k]
		}
	})
	total := 0
	for v := range g.rows {
		rw := &g.rows[v]
		rw.start, rw.cap = int32(total), rw.len
		total += int(rw.len)
	}
	checkArena(total)
	g.arena = make([]NodeID, total)
	g.m = total / 2
	eachBand(bands, func(y0, y1 int) {
		for k := d.start[y0*d.cols]; k < d.start[y1*d.cols]; k++ {
			off[k] = g.rows[d.ids[k]].start
		}
		var buf []NodeID
		d.eachPoint(y0, y1, func(k int32, runs *[4][2]int32) {
			// The same gather counted this row, so it fills its room.
			buf = d.gather(buf, k, runs)
			place(g.arena[off[k]:off[k]+int32(len(buf))], buf)
		})
	})
	return g
}

// diskGrid is the points of a unit-disk build bucketed into square
// cells, numbered row by row: cell c's points take slots
// start[c]:start[c+1], in ascending ID order, and slot k holds point
// at[k] of node ids[k].
type diskGrid struct {
	cols  int
	r2    float64
	start []int32
	ids   []NodeID
	at    []Point
}

func newDiskGrid(pts []Point, r float64) *diskGrid {
	n := len(pts)
	// Rounded, Dist2 <= r*r admits pairs a few ulps farther apart than r,
	// and x/side rounds too. A side a relative 1e-9 above r keeps every
	// such pair in adjacent cells; at side = r, the pair x = 0.35-0.1 and
	// x = 0.5 at r = 0.25 lands two cells apart.
	side := max(r*(1+1e-9), 1/math.Sqrt(float64(n)))
	cols := int(1/side) + 1
	coord := func(x float64) int {
		c := x / side
		switch {
		case !(c > 0): // NaN lands here too
			return 0
		case c >= float64(cols-1):
			return cols - 1
		}
		return int(c)
	}
	d := &diskGrid{cols: cols, r2: r * r, start: make([]int32, cols*cols+2), ids: make([]NodeID, n), at: make([]Point, n)}
	cell := make([]int32, n)
	for i, p := range pts {
		cell[i] = int32(coord(p.Y)*cols + coord(p.X))
		d.start[cell[i]+2]++
	}
	for c := 2; c < len(d.start); c++ {
		d.start[c] += d.start[c-1]
	}
	for i, c := range cell {
		k := d.start[c+1]
		d.start[c+1]++
		d.ids[k], d.at[k] = NodeID(i), pts[i]
	}
	return d
}

// bands splits the grid rows into workers runs of about equal length
// and returns their bounds: band b is rows bands[b]:bands[b+1].
func (d *diskGrid) bands(workers int) []int {
	bands := make([]int, workers+1)
	for b := range bands {
		bands[b] = b * d.cols / workers
	}
	return bands
}

// eachPoint calls f for every slot k of grid rows y0:y1, in slot order,
// with the slot runs of the 3x3 cell block around k's cell, k left out:
// the block's cells in grid rows y-1 and y+1, and those in row y before
// and after k.
func (d *diskGrid) eachPoint(y0, y1 int, f func(k int32, runs *[4][2]int32)) {
	var runs [4][2]int32
	for y := y0; y < y1; y++ {
		for x := 0; x < d.cols; x++ {
			mid := d.run(x, y)
			runs[0], runs[3] = d.run(x, y-1), d.run(x, y+1)
			for k := d.start[y*d.cols+x]; k < d.start[y*d.cols+x+1]; k++ {
				runs[1], runs[2] = [2]int32{mid[0], k}, [2]int32{k + 1, mid[1]}
				f(k, &runs)
			}
		}
	}
}

// run returns the slots of the cells x-1 to x+1 of grid row y, which
// are consecutive; it is empty for a row off the grid.
func (d *diskGrid) run(x, y int) [2]int32 {
	if y < 0 || y >= d.cols {
		return [2]int32{}
	}
	return [2]int32{d.start[y*d.cols+max(x-1, 0)], d.start[y*d.cols+min(x+1, d.cols-1)+1]}
}

// gather returns, in buf's storage, the nodes within r of slot k's
// point among the slots of runs, in slot order. Every candidate is
// written and the count advances only past the ones in range, so the
// loop has no data-dependent branch.
func (d *diskGrid) gather(buf []NodeID, k int32, runs *[4][2]int32) []NodeID {
	size := 0
	for _, run := range runs {
		size += int(run[1] - run[0])
	}
	if size > cap(buf) {
		buf = make([]NodeID, 2*size)
	}
	buf = buf[:cap(buf)]
	p, n := d.at[k], 0
	for _, run := range runs {
		at, ids := d.at[run[0]:run[1]], d.ids[run[0]:run[1]]
		for j, q := range at {
			buf[n] = ids[j]
			if p.Dist2(q) <= d.r2 {
				n++
			}
		}
	}
	return buf[:n]
}

// place writes the distinct nodes of nb into row, of the same length,
// in ascending order. A short row, the common case, goes by rank: each
// node's place is the number of smaller ones, counted without a
// data-dependent branch.
func place(row, nb []NodeID) {
	if len(nb) > 32 {
		copy(row, nb)
		slices.Sort(row)
		return
	}
	for _, a := range nb {
		rank := 0
		for _, b := range nb {
			if b < a {
				rank++
			}
		}
		row[rank] = a
	}
}

// eachBand runs f on every band, the first on the caller's goroutine
// and each other on its own, and returns when all are done.
func eachBand(bands []int, f func(c0, c1 int)) {
	var wg sync.WaitGroup
	for b := 1; b+1 < len(bands); b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(bands[b], bands[b+1])
		}()
	}
	f(bands[0], bands[1])
	wg.Wait()
}
