package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
)

// Protocol names a tenant may host.
const (
	ProtocolSMM = "smm"
	ProtocolSMI = "smi"
)

// NodeInfo is the per-node read served by GET .../nodes/{node}.
type NodeInfo struct {
	Node  int    `json:"node"`
	State string `json:"state"`
	// MatchedWith is the symmetric-pointer partner (SMM only): set when
	// this node and its target point at each other.
	MatchedWith *int `json:"matched_with,omitempty"`
	// InSet reports independent-set membership (SMI only).
	InSet  *bool `json:"in_set,omitempty"`
	Degree int   `json:"degree"`
}

// tenantEngine is the protocol-erased face of one tenant's executor.
// All methods assume the caller holds the tenant's write lock (reads:
// at least the read lock); the event loop is the single writer.
type tenantEngine interface {
	// protocol returns the protocol name ("smm", "smi").
	protocol() string
	// n returns the node count, m the live edge count.
	n() int
	m() int
	// bound returns the per-epoch round bound the service enforces: the
	// protocol's faults.Spec bound at n.
	bound() int
	// setLink makes edge e present or absent, with dangling-reference
	// repair on removal, and dirties exactly the affected neighborhoods.
	// Every topology edit goes through it, so it also keeps the drift
	// exact.
	//
	//selfstab:applies
	setLink(e graph.Edge, present bool)
	// hasEdge reports whether edge e is live.
	hasEdge(e graph.Edge) bool
	// drift returns the edges whose presence differs from the creation
	// topology the engine was built on: added ones (live now) and
	// removed ones (absent now), each ascending.
	drift() (added, removed []graph.Edge)
	// corrupt overwrites the targeted nodes with arbitrary states drawn
	// from per-node streams derived from seed.
	//
	//selfstab:applies
	corrupt(nodes []graph.NodeID, seed int64)
	// converge drives the frontier engine until a fixed point, maxRounds
	// active rounds, or ctx cancellation, and returns the active rounds
	// and moves executed plus whether a fixed point was reached.
	converge(ctx context.Context, maxRounds int) (rounds, moves int, stable bool, err error)
	// appendStates appends the state vector as a JSON array, the bytes
	// json.Marshal writes for it; statesLen bounds their length.
	appendStates(b []byte) []byte
	statesLen() int
	// decodeStates restores a state vector serialized by appendStates
	// and re-dirties every node for re-evaluation.
	decodeStates(raw json.RawMessage) error
	// nodeInfo reads one node.
	nodeInfo(v graph.NodeID) NodeInfo
	// generation changes whenever a node's state does: a converge that
	// moved a node, a corrupt draw unlike the state it overwrote, a link
	// removal whose repair rewrote an endpoint, and a state restore.
	// Anything read from the states alone is fixed while it holds.
	generation() uint64
	// membership returns the converged structure as a JSON object, in a
	// buffer of its exact length: the matched edges (SMM) or the in-set
	// nodes (SMI), ascending.
	membership() []byte
	// check verifies the legitimacy predicate on the current
	// configuration (meaningful when converged): the whole configuration
	// when full is set, otherwise the region the engine's edits since
	// the last verified configuration touched. Both give the same
	// verdict and words.
	check(full bool) error
	// appendEdges appends the live topology as a JSON array of [u, v]
	// pairs, ascending.
	appendEdges(b []byte) []byte
	// neighbors returns the live neighbor list of v (graph-owned; copy
	// before keeping).
	neighbors(v graph.NodeID) []graph.NodeID
	// close releases executor resources (sharded worker pools).
	close()
}

// engine implements tenantEngine generically over the state type.
type engine[S comparable] struct {
	name string
	p    core.Protocol[S]
	fl   *sim.FaultLockstep[S]
	cfg  core.Config[S]
	app  func([]byte, []S) []byte
	dec  func(json.RawMessage, int) ([]S, error)
	info func(core.Config[S], graph.NodeID) NodeInfo
	mem  func([]byte, []S) []byte
	chk  *faults.LocalChecker[S]
	spec faults.Spec[S]
	// width bounds the bytes one encoded state and its comma take.
	width int
	// fullChecks counts the checks that scanned the whole configuration.
	fullChecks int
	// gen is the state generation (see tenantEngine.generation).
	gen uint64
	// flipped is the drift: the edges whose presence differs from the
	// creation topology. Each real flip toggles its edge in or out.
	flipped map[graph.Edge]struct{}
}

func (e *engine[S]) protocol() string { return e.name }
func (e *engine[S]) n() int           { return e.cfg.G.N() }
func (e *engine[S]) m() int           { return e.cfg.G.M() }
func (e *engine[S]) bound() int       { return e.spec.Bound(e.n()) }

func (e *engine[S]) setLink(ed graph.Edge, present bool) {
	before := e.cfg.G.Version()
	su, sv := e.cfg.States[ed.U], e.cfg.States[ed.V]
	e.fl.SetLink(ed, present)
	if e.cfg.States[ed.U] != su || e.cfg.States[ed.V] != sv {
		e.gen++
	}
	after := e.cfg.G.Version()
	e.chk.Flip(ed, before, after)
	if after == before {
		return
	}
	if _, ok := e.flipped[ed]; ok {
		delete(e.flipped, ed)
	} else {
		e.flipped[ed] = struct{}{}
	}
}

func (e *engine[S]) hasEdge(ed graph.Edge) bool { return e.cfg.G.HasEdge(ed.U, ed.V) }

func (e *engine[S]) drift() (added, removed []graph.Edge) {
	for ed := range e.flipped {
		if e.hasEdge(ed) {
			added = append(added, ed)
		} else {
			removed = append(removed, ed)
		}
	}
	slices.SortFunc(added, compareEdges)
	slices.SortFunc(removed, compareEdges)
	return added, removed
}

func compareEdges(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) }

func (e *engine[S]) corrupt(nodes []graph.NodeID, seed int64) {
	for i, v := range nodes {
		rng := rand.New(rand.NewSource(core.DeriveSeed(seed, []string{"corrupt"}, i)))
		s := e.p.Random(v, e.cfg.G.Neighbors(v), rng)
		if s != e.cfg.States[v] {
			e.gen++
		}
		e.fl.WriteState(v, s)
	}
}

func (e *engine[S]) converge(ctx context.Context, maxRounds int) (int, int, bool, error) {
	l := e.fl.Lockstep()
	movesBefore := l.Moves()
	res, err := l.ConvergeCtx(ctx, maxRounds)
	moves := l.Moves() - movesBefore
	if moves > 0 {
		e.gen++
	}
	return res.Rounds, moves, res.Stable, err
}

func (e *engine[S]) appendStates(b []byte) []byte { return e.app(b, e.cfg.States) }
func (e *engine[S]) statesLen() int               { return len(e.cfg.States)*e.width + 2 }

func (e *engine[S]) decodeStates(raw json.RawMessage) error {
	states, err := e.dec(raw, len(e.cfg.States))
	if err != nil {
		return err
	}
	copy(e.cfg.States, states)
	e.gen++
	e.chk.Reset()
	// The restore bypassed the executor's write hooks: re-dirty every
	// closed neighborhood so the next convergence re-evaluates everyone.
	l := e.fl.Lockstep()
	for v := range e.cfg.States {
		l.DirtyState(graph.NodeID(v))
	}
	return nil
}

func (e *engine[S]) nodeInfo(v graph.NodeID) NodeInfo { return e.info(e.cfg, v) }

func (e *engine[S]) generation() uint64 { return e.gen }

// membership encodes into a buffer of the longest body's length, at
// most n/2 pairs or n IDs with commas, and returns a copy of the exact
// length: a bound is cheaper than measuring first, and the body is
// kept while its generation holds.
func (e *engine[S]) membership() []byte {
	n := len(e.cfg.States)
	b := e.mem(make([]byte, 0, n*(idLen(n)+2)+len(`{"edges":[]}`)), e.cfg.States)
	return append(make([]byte, 0, len(b)), b...)
}

func (e *engine[S]) check(full bool) (err error) {
	scanned := full
	if full {
		err = e.chk.Scan(e.cfg)
	} else {
		scanned, err = e.chk.Check(e.cfg)
	}
	if scanned {
		e.fullChecks++
	}
	return err
}

// appendEdges writes each row from its first neighbor above u on, with
// the row's ",[u," formatted once. Every pair is written after a
// comma; the first pair's comma becomes the array's opening bracket.
func (e *engine[S]) appendEdges(b []byte) []byte {
	g := e.cfg.G
	open := len(b)
	var buf [24]byte
	for u := range graph.NodeID(g.N()) {
		row := g.Neighbors(u)
		i, _ := slices.BinarySearch(row, u)
		if i == len(row) {
			continue
		}
		pre := append(appendID(append(buf[:0], ',', '['), int(u)), ',')
		for _, v := range row[i:] {
			b = append(appendID(append(b, pre...), int(v)), ']')
		}
	}
	if len(b) == open {
		return append(b, "[]"...)
	}
	b[open] = '['
	return append(b, ']')
}

func (e *engine[S]) neighbors(v graph.NodeID) []graph.NodeID { return e.cfg.G.Neighbors(v) }

func (e *engine[S]) close() { e.fl.Close() }

// newEngine builds the tenant executor for the named protocol over an
// initially edge-listed topology, at the given shard count (clamped to
// [1, n], so the zero value selects one shard). The graph is built in
// one pass over the list, which validateMeta has checked; an edge
// listed twice is kept once.
func newEngine(protocol string, n int, edges [][2]int, shards int) (tenantEngine, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = edgeOf(e)
	}
	g := graph.FromEdges(n, es)
	switch protocol {
	case ProtocolSMM:
		cfg := core.NewConfig[core.Pointer](g)
		for v := range cfg.States {
			cfg.States[v] = core.Null
		}
		return &engine[core.Pointer]{
			name:    ProtocolSMM,
			p:       core.NewSMM(),
			fl:      sim.NewShardedFaultLockstep(core.NewSMM(), cfg, shards),
			cfg:     cfg,
			app:     appendPointers,
			dec:     decodePointers,
			info:    smmNodeInfo,
			mem:     smmMembership,
			chk:     faults.NewSMMLocalChecker(),
			spec:    faults.SMM,
			width:   idLen(n) + 1,
			flipped: map[graph.Edge]struct{}{},
		}, nil
	case ProtocolSMI:
		cfg := core.NewConfig[bool](g)
		return &engine[bool]{
			name:    ProtocolSMI,
			p:       core.NewSMI(),
			fl:      sim.NewShardedFaultLockstep[bool](core.NewSMI(), cfg, shards),
			cfg:     cfg,
			app:     appendBools,
			dec:     decodeBools,
			info:    smiNodeInfo,
			mem:     smiMembership,
			chk:     faults.NewSMILocalChecker(),
			spec:    faults.SMI,
			width:   len("false,"),
			flipped: map[graph.Edge]struct{}{},
		}, nil
	default: // unknown protocols are rejected at tenant creation
		return nil, fmt.Errorf("unknown protocol %q (want %q or %q)", protocol, ProtocolSMM, ProtocolSMI)
	}
}

// idLen bounds the decimal length of a node ID below n, and of -1.
func idLen(n int) int { return max(len(strconv.Itoa(n)), 2) }

// pairLen bounds the bytes one [u, v] pair of IDs below n and its comma
// take.
func pairLen(n int) int { return 2*idLen(n) + 4 }

// digitPairs holds "00" through "99", the two digits of each value
// below 100 at twice its offset.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^0 through 10^9, the smallest values of each decimal
// length up to math.MaxUint32's.
var pow10 = [...]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decLen is the decimal length of u >= 10. Scaling the bit length by
// 1233/4096, just below log10(2), gives the length or one less, and
// pow10 tells which.
func decLen(u uint32) int {
	t := bits.Len32(u) * 1233 >> 12
	if u < pow10[t] {
		return t
	}
	return t + 1
}

// appendID appends node ID v in decimal, byte for byte as
// strconv.AppendInt writes it. Every ID the service writes goes through
// it. Values in [0, math.MaxInt32] are written in place, two digits per
// step from digitPairs, with b grown once by their exact length; -1
// (core.Null) is two fixed bytes, and anything else goes through
// strconv.
func appendID(b []byte, v int) []byte {
	if uint(v) > 1<<31-1 {
		if v == -1 {
			return append(b, '-', '1')
		}
		return strconv.AppendInt(b, int64(v), 10)
	}
	u := uint32(v)
	if u < 10 {
		return append(b, byte('0'+u))
	}
	n := decLen(u)
	i := len(b) + n
	b = slices.Grow(b, n)[:i]
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// appendPair appends [u,v].
func appendPair(b []byte, u, v int) []byte {
	b = appendID(append(b, '['), u)
	b = appendID(append(b, ','), v)
	return append(b, ']')
}

// appendEdgeList appends es as a JSON array of [u, v] pairs.
func appendEdgeList(b []byte, es []graph.Edge) []byte {
	b = append(b, '[')
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPair(b, int(e.U), int(e.V))
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string, byte for byte as
// encoding/json writes it. Printable ASCII that json leaves unescaped is
// copied as is; anything else goes through json.Marshal, so its
// escaping rules (HTML characters, control bytes, invalid UTF-8,
// U+2028 and U+2029) stay its own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendPointers(b []byte, states []core.Pointer) []byte {
	b = append(b, '[')
	for i, s := range states {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendID(b, int(s))
	}
	return append(b, ']')
}

func decodePointers(raw json.RawMessage, n int) ([]core.Pointer, error) {
	var vals []int32
	if err := json.Unmarshal(raw, &vals); err != nil {
		return nil, err
	}
	if len(vals) != n {
		return nil, fmt.Errorf("snapshot has %d states for %d nodes", len(vals), n)
	}
	states := make([]core.Pointer, n)
	for i, v := range vals {
		// A pointer past the node range would index out of the state
		// vector wherever a reader follows it.
		if v < int32(core.Null) || int(v) >= n {
			return nil, fmt.Errorf("snapshot state %d of node %d is neither null nor a node in [0, %d)", v, i, n)
		}
		states[i] = core.Pointer(v)
	}
	return states, nil
}

func appendBools(b []byte, states []bool) []byte {
	b = append(b, '[')
	for i, s := range states {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, s)
	}
	return append(b, ']')
}

func decodeBools(raw json.RawMessage, n int) ([]bool, error) {
	var vals []bool
	if err := json.Unmarshal(raw, &vals); err != nil {
		return nil, err
	}
	if len(vals) != n {
		return nil, fmt.Errorf("snapshot has %d states for %d nodes", len(vals), n)
	}
	return vals, nil
}

func smmNodeInfo(cfg core.Config[core.Pointer], v graph.NodeID) NodeInfo {
	ni := NodeInfo{Node: int(v), State: cfg.States[v].String(), Degree: cfg.G.Degree(v)}
	if core.Matched(cfg, v) {
		w := int(cfg.States[v].Node())
		ni.MatchedWith = &w
	}
	return ni
}

func smiNodeInfo(cfg core.Config[bool], v graph.NodeID) NodeInfo {
	in := cfg.States[v]
	state := "out"
	if in {
		state = "in"
	}
	return NodeInfo{Node: int(v), State: state, InSet: &in, Degree: cfg.G.Degree(v)}
}

// smmMembership appends {"edges": [...]}: the pairs whose pointers meet,
// as core.MatchingOf finds them. Walking v upward emits each pair once,
// at its smaller end, so they come out ascending.
func smmMembership(b []byte, st []core.Pointer) []byte {
	b = append(b, `{"edges":[`...)
	first := true
	for v, p := range st {
		if p.IsNull() || int(p) <= v || st[p] != core.Pointer(v) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendPair(b, v, int(p))
	}
	return append(b, "]}"...)
}

// smiMembership appends {"nodes": [...]}: the in-set nodes, ascending.
func smiMembership(b []byte, st []bool) []byte {
	b = append(b, `{"nodes":[`...)
	first := true
	for v, in := range st {
		if !in {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendID(b, v)
	}
	return append(b, "]}"...)
}
