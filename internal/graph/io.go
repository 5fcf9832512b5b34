package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteEdgeList emits the graph in the plain interchange format
//
//	# optional comments
//	<n>
//	<u> <v>
//	...
//
// with one edge per line, normalized u < v, in deterministic order.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format WriteEdgeList emits. Blank lines and
// lines starting with '#' are ignored. Duplicate edges are rejected, as
// are self-loops and out-of-range endpoints.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if g == nil {
			var n int
			if _, err := fmt.Sscanf(text, "%d", &n); err != nil || n < 0 || n > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, text)
			}
			g = New(n)
			continue
		}
		var u, v int
		if _, err := fmt.Sscanf(text, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
		}
		if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range in %q", line, text)
		}
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop %q", line, text)
		}
		if !g.AddEdge(NodeID(u), NodeID(v)) {
			return nil, fmt.Errorf("graph: line %d: duplicate edge %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty edge-list input")
	}
	return g, nil
}

// jsonGraph is the wire form of a Graph.
type jsonGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON encodes the graph as {"n": ..., "edges": [[u,v], ...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{N: g.N(), Edges: make([][2]int, 0, g.M())}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, [2]int{int(e.U), int(e.V)})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes the MarshalJSON form, validating every edge. It
// decodes into a fresh store and installs it only once every edge has
// passed, so a rejected input leaves g as it was. The installed graph
// continues g's version past its old value: an executor that recorded
// the old one sees the edge set change at its next round, even when the
// new graph took as many edits to build as the old one.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decoding JSON: %w", err)
	}
	if jg.N < 0 || jg.N > math.MaxInt32 {
		return fmt.Errorf("graph: node count %d outside [0, %d]", jg.N, math.MaxInt32)
	}
	h := New(jg.N)
	for _, e := range jg.Edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= jg.N || v >= jg.N || u == v {
			return fmt.Errorf("graph: invalid edge [%d,%d]", u, v)
		}
		if !h.AddEdge(NodeID(u), NodeID(v)) {
			return fmt.Errorf("graph: duplicate edge [%d,%d]", u, v)
		}
	}
	h.version = g.version + 1
	*g = *h
	return nil
}
