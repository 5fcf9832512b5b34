package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

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
	// setLink makes edge e present or absent, with dangling-reference
	// repair on removal, and dirties exactly the affected neighborhoods.
	//
	//selfstab:applies
	setLink(e graph.Edge, present bool)
	// corrupt overwrites the targeted nodes with arbitrary states drawn
	// from per-node streams derived from seed.
	//
	//selfstab:applies
	corrupt(nodes []graph.NodeID, seed int64)
	// converge drives the frontier engine until a fixed point, maxRounds
	// active rounds, or ctx cancellation, and returns the active rounds
	// and moves executed plus whether a fixed point was reached.
	converge(ctx context.Context, maxRounds int) (rounds, moves int, stable bool, err error)
	// encodeStates serializes the state vector deterministically.
	encodeStates() json.RawMessage
	// decodeStates restores a state vector serialized by encodeStates
	// and re-dirties every node for re-evaluation.
	decodeStates(raw json.RawMessage) error
	// nodeInfo reads one node.
	nodeInfo(v graph.NodeID) NodeInfo
	// membership serializes the converged structure: the matched edges
	// (SMM) or the in-set nodes (SMI), ascending.
	membership() json.RawMessage
	// check verifies the legitimacy predicate on the current
	// configuration (meaningful when converged): the whole configuration
	// when full is set, otherwise the region the engine's edits since
	// the last verified configuration touched. Both give the same
	// verdict and words.
	check(full bool) error
	// edges lists the live topology, ascending, as [u, v] pairs.
	edges() [][2]int
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
	enc  func([]S) json.RawMessage
	dec  func(json.RawMessage, int) ([]S, error)
	info func(core.Config[S], graph.NodeID) NodeInfo
	mem  func(core.Config[S]) json.RawMessage
	chk  *faults.LocalChecker[S]
	// fullChecks counts the checks that scanned the whole configuration.
	fullChecks int
}

func (e *engine[S]) protocol() string { return e.name }
func (e *engine[S]) n() int           { return e.cfg.G.N() }
func (e *engine[S]) m() int           { return e.cfg.G.M() }

func (e *engine[S]) setLink(ed graph.Edge, present bool) {
	before := e.cfg.G.Version()
	e.fl.SetLink(ed, present)
	e.chk.Flip(ed, before, e.cfg.G.Version())
}

func (e *engine[S]) corrupt(nodes []graph.NodeID, seed int64) {
	for i, v := range nodes {
		rng := rand.New(rand.NewSource(deriveSeed(seed, "corrupt", i)))
		e.fl.WriteState(v, e.p.Random(v, e.cfg.G.Neighbors(v), rng))
	}
}

func (e *engine[S]) converge(ctx context.Context, maxRounds int) (int, int, bool, error) {
	l := e.fl.Lockstep()
	movesBefore := l.Moves()
	res, err := l.ConvergeCtx(ctx, maxRounds)
	return res.Rounds, l.Moves() - movesBefore, res.Stable, err
}

func (e *engine[S]) encodeStates() json.RawMessage { return e.enc(e.cfg.States) }

func (e *engine[S]) decodeStates(raw json.RawMessage) error {
	states, err := e.dec(raw, len(e.cfg.States))
	if err != nil {
		return err
	}
	copy(e.cfg.States, states)
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
func (e *engine[S]) membership() json.RawMessage      { return e.mem(e.cfg) }

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

func (e *engine[S]) edges() [][2]int {
	es := e.cfg.G.Edges()
	out := make([][2]int, len(es))
	for i, ed := range es {
		out[i] = [2]int{int(ed.U), int(ed.V)}
	}
	return out
}

func (e *engine[S]) neighbors(v graph.NodeID) []graph.NodeID { return e.cfg.G.Neighbors(v) }

func (e *engine[S]) close() { e.fl.Close() }

// newEngine builds the tenant executor for the named protocol over an
// initially edge-listed topology, at the given shard count (clamped to
// [1, n], so the zero value selects one shard). The graph is built in
// one pass over the validated list; an edge listed twice is kept once.
func newEngine(protocol string, n int, edges [][2]int, shards int) (tenantEngine, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		// Checked as ints: NodeID is 32-bit, so converting first would
		// wrap an out-of-range endpoint into range.
		if !distinctInRange(e[0], e[1], n) {
			return nil, fmt.Errorf("invalid edge [%d, %d] for n=%d", e[0], e[1], n)
		}
		es[i] = graph.NewEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g := graph.FromEdges(n, es)
	switch protocol {
	case ProtocolSMM:
		cfg := core.NewConfig[core.Pointer](g)
		for v := range cfg.States {
			cfg.States[v] = core.Null
		}
		return &engine[core.Pointer]{
			name: ProtocolSMM,
			p:    core.NewSMM(),
			fl:   sim.NewShardedFaultLockstep(core.NewSMM(), cfg, shards),
			cfg:  cfg,
			enc:  encodePointers,
			dec:  decodePointers,
			info: smmNodeInfo,
			mem:  smmMembership,
			chk:  faults.NewSMMLocalChecker(),
		}, nil
	case ProtocolSMI:
		cfg := core.NewConfig[bool](g)
		return &engine[bool]{
			name: ProtocolSMI,
			p:    core.NewSMI(),
			fl:   sim.NewShardedFaultLockstep[bool](core.NewSMI(), cfg, shards),
			cfg:  cfg,
			enc:  encodeBools,
			dec:  decodeBools,
			info: smiNodeInfo,
			mem:  smiMembership,
			chk:  faults.NewSMILocalChecker(),
		}, nil
	default: // unknown protocols are rejected at tenant creation
		return nil, fmt.Errorf("unknown protocol %q (want %q or %q)", protocol, ProtocolSMM, ProtocolSMI)
	}
}

// protocolBound returns the convergence budget the service enforces per
// mutation epoch: the paper's stabilization bounds from an arbitrary
// configuration — Theorem 1's n+1 rounds for SMM and the 2n+2 rounds
// experiment E15 records for SMI (factor 2, slack 2, as the soak
// campaigns pin).
func protocolBound(protocol string, n int) int {
	switch protocol {
	case ProtocolSMM:
		return n + 1
	case ProtocolSMI:
		return 2*n + 2
	default: // creation validates the protocol name; unreachable for live tenants
		return 2*n + 2
	}
}

func encodePointers(states []core.Pointer) json.RawMessage {
	vals := make([]int32, len(states))
	for i, s := range states {
		vals[i] = int32(s)
	}
	raw, err := json.Marshal(vals)
	if err != nil {
		panic(fmt.Sprintf("service: encode pointers: %v", err))
	}
	return raw
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
		states[i] = core.Pointer(v)
	}
	return states, nil
}

func encodeBools(states []bool) json.RawMessage {
	raw, err := json.Marshal(states)
	if err != nil {
		panic(fmt.Sprintf("service: encode bools: %v", err))
	}
	return raw
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

func smmMembership(cfg core.Config[core.Pointer]) json.RawMessage {
	edges := core.MatchingOf(cfg)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{int(e.U), int(e.V)}
	}
	raw, err := json.Marshal(struct {
		Edges [][2]int `json:"edges"`
	}{out})
	if err != nil {
		panic(fmt.Sprintf("service: encode matching: %v", err))
	}
	return raw
}

func smiMembership(cfg core.Config[bool]) json.RawMessage {
	set := core.SetOf(cfg)
	nodes := make([]int, len(set))
	for i, v := range set {
		nodes[i] = int(v)
	}
	raw, err := json.Marshal(struct {
		Nodes []int `json:"nodes"`
	}{nodes})
	if err != nil {
		panic(fmt.Sprintf("service: encode set: %v", err))
	}
	return raw
}

// deriveSeed hashes a tenant seed with a stream name and an index into
// an independent seed, mirroring the fault engine's derived-seed
// discipline: every corruption draws from its own stream, so replaying
// a journal suffix reproduces exactly the states an uninterrupted run
// wrote.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(stream))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(i)))
	h.Write(buf[:])
	x := h.Sum64()
	// splitmix64 finalizer for full avalanche.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}
