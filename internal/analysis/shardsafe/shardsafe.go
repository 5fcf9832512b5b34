// Package shardsafe checks the commit/mark phase discipline of
// core.Kernel that makes the 4-phase sharded barrier round race-free
// and byte-identical to the reference scan.
//
// The sharded executor hands each worker a batch of node IDs drawn from
// its own contiguous owned range. Soundness rests on two write rules:
//
//   - CommitBatch may write the protocol state vectors (states, next,
//     moved) only at indices derived from the batch's ids slice, and may
//     read them only at such indices — a commit that peeked at another
//     shard's slot would race with that shard's writes.
//   - MarkBatch must never write post-round state. It reads states/moved
//     at indices derived from the ids slice or from the neighbor rows of
//     its graph argument (marking is proven order-independent against
//     post-round state, so cross-shard reads through the rows are safe),
//     and records dirtiness only through the sanctioned Frontier entry
//     points Add and AddMask on its own full-length frontier, which the
//     absorb phase merges range by range.
//
// Every shard reads the one graph, so MoveBatch and MarkBatch may use
// their graph argument only through its read accessors Neighbors,
// Degree and N: any other method, a write through it, or handing it to
// a call could edit the row store under the other shards' reads.
// MoveBatch is checked for this rule alone — its reads of the
// pre-round states are unrestricted, since nothing writes them while
// it runs.
//
// The analyzer identifies CommitBatch/MarkBatch/MoveBatch method bodies
// by name and shape, then runs a forward must-analysis over the CFG
// tracking which local values are proven to be owned indices (derived
// from ids), topology indices (derived from the graph's rows), or slices
// thereof. The join is intersection: a value owned on only one path is
// not owned.
// Any state-vector index not proven, any state write in MarkBatch, any
// unsanctioned Frontier or Graph method, and any escape of a state
// vector, the frontier or the graph into a call is reported.
package shardsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"selfstab/internal/analysis/cfg"
	"selfstab/internal/analysis/lint"
)

// New returns the shardsafe analyzer.
func New() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "shardsafe",
		Doc:  "check core.Kernel CommitBatch/MarkBatch write-ownership and phase discipline",
		Run:  run,
	}
}

// Value classification bits. The analysis is a must-analysis: a bit is
// set only when the value provably has that provenance on every path.
const (
	bOwned     uint8 = 1 << iota // index derived from the ids slice
	bTopo                        // index derived from the graph's rows
	bIdsSlice                    // the ids slice or a subslice of it
	bTopoSlice                   // a row slice (Neighbors result)
	bTopoSrc                     // the graph argument itself
)

// graphReaders are the Graph methods a kernel may call on its graph
// argument: the read accessors.
var graphReaders = map[string]bool{"Neighbors": true, "Degree": true, "N": true}

type kernelKind int

const (
	kindCommit kernelKind = iota
	kindMark
	kindMove
)

type kernel struct {
	kind kernelKind
	decl *ast.FuncDecl
	desc string

	ids      *types.Var
	topo     *types.Var            // mark and move: the graph argument
	frontier *types.Var            // mark only
	stateVec map[*types.Var]string // state vectors by param object → display name
}

func run(pass *lint.Pass) (any, error) {
	for _, f := range pass.Files {
		if lint.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			k := matchKernel(pass, fd)
			if k == nil {
				continue
			}
			checkKernel(pass, k)
		}
	}
	return nil, nil
}

// matchKernel recognizes a Kernel commit or mark method by name and
// signature shape, returning nil for unrelated methods that merely
// share the name.
func matchKernel(pass *lint.Pass, fd *ast.FuncDecl) *kernel {
	var kind kernelKind
	switch fd.Name.Name {
	case "CommitBatch":
		kind = kindCommit
	case "MarkBatch":
		kind = kindMark
	case "MoveBatch":
		kind = kindMove
	default:
		return nil
	}

	// Flatten parameters to (name, object, type) triples. Blank or
	// anonymous parameters have a nil object but still carry a type.
	type param struct {
		name string
		obj  *types.Var
		typ  types.Type
	}
	var params []param
	for _, field := range fd.Type.Params.List {
		ft := pass.TypesInfo.Types[field.Type].Type
		if len(field.Names) == 0 {
			params = append(params, param{name: "_", typ: ft})
			continue
		}
		for _, name := range field.Names {
			var obj *types.Var
			if name.Name != "_" {
				obj, _ = pass.TypesInfo.Defs[name].(*types.Var)
			}
			params = append(params, param{name: name.Name, obj: obj, typ: ft})
		}
	}

	isNodeIDSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		n, ok := s.Elem().(*types.Named)
		return ok && n.Obj().Name() == "NodeID"
	}
	isSlice := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	namedPtr := func(t types.Type, name string) bool {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return false
		}
		n, ok := p.Elem().(*types.Named)
		return ok && n.Obj().Name() == name
	}

	k := &kernel{kind: kind, decl: fd, desc: methodDesc(fd), stateVec: make(map[*types.Var]string)}
	display := func(p param, fallback string) string {
		if p.name != "" && p.name != "_" {
			return p.name
		}
		return fallback
	}
	switch kind {
	case kindCommit:
		// CommitBatch(ids []NodeID, states, next []S, moved []bool) int
		if len(params) != 4 || !isNodeIDSlice(params[0].typ) ||
			!isSlice(params[1].typ) || !isSlice(params[2].typ) || !isSlice(params[3].typ) {
			return nil
		}
		k.ids = params[0].obj
		fallbacks := []string{"", "states", "next", "moved"}
		for i := 1; i <= 3; i++ {
			if params[i].obj != nil {
				k.stateVec[params[i].obj] = display(params[i], fallbacks[i])
			}
		}
	case kindMark:
		// MarkBatch(ids []NodeID, g *Graph, states []S, moved []bool, f *Frontier)
		if len(params) != 5 || !isNodeIDSlice(params[0].typ) ||
			!namedPtr(params[1].typ, "Graph") ||
			!isSlice(params[2].typ) || !isSlice(params[3].typ) ||
			!namedPtr(params[4].typ, "Frontier") {
			return nil
		}
		k.ids = params[0].obj
		k.topo = params[1].obj
		k.frontier = params[4].obj
		fallbacks := []string{"", "", "states", "moved", ""}
		for i := 2; i <= 3; i++ {
			if params[i].obj != nil {
				k.stateVec[params[i].obj] = display(params[i], fallbacks[i])
			}
		}
	case kindMove:
		// MoveBatch(ids []NodeID, g *Graph, states, next []S, moved []bool)
		if len(params) != 5 || !isNodeIDSlice(params[0].typ) ||
			!namedPtr(params[1].typ, "Graph") ||
			!isSlice(params[2].typ) || !isSlice(params[3].typ) || !isSlice(params[4].typ) {
			return nil
		}
		k.ids = params[0].obj
		k.topo = params[1].obj
	}
	return k
}

// state is the dataflow fact: provenance bits for each tracked local.
// Absence means no proven provenance.
type state map[*types.Var]uint8

func cloneState(s state) state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func equalState(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// joinState is intersection: keep only keys present in both, with the
// bitwise AND of their provenance (must-analysis).
func joinState(a, b state) state {
	out := make(state)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if m := va & vb; m != 0 {
				out[k] = m
			}
		}
	}
	return out
}

type checker struct {
	pass *lint.Pass
	k    *kernel
}

// ownProblem adapts the checker to the cfg dataflow interface.
type ownProblem struct{ c *checker }

func (p ownProblem) Init() state           { return state{} }
func (p ownProblem) Join(a, b state) state { return joinState(a, b) }
func (p ownProblem) Equal(a, b state) bool { return equalState(a, b) }
func (p ownProblem) Transfer(b *cfg.Block, in state) state {
	st := cloneState(in)
	for _, n := range b.Nodes {
		p.c.step(n, st, nil)
	}
	return st
}

func checkKernel(pass *lint.Pass, k *kernel) {
	c := &checker{pass: pass, k: k}
	g := cfg.New(k.decl.Body)
	ins := cfg.Solve[state](g, ownProblem{c})

	// Replay each block from its fixpoint IN with diagnostics on.
	for i, b := range g.Blocks {
		st := cloneState(ins[i])
		for _, n := range b.Nodes {
			c.step(n, st, func(pos token.Pos, msg string) {
				pass.Reportf(pos, "%s %s", c.k.desc, msg)
			})
		}
	}
}

type reporter func(pos token.Pos, msg string)

// step applies one CFG node's transfer function, emitting diagnostics
// when report is non-nil.
func (c *checker) step(n ast.Node, st state, report reporter) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assign(n, st, report)
	case *ast.RangeStmt:
		c.rangeStmt(n, st, report)
	case *ast.IncDecStmt:
		c.checkWrite(n.X, st, report)
		// ++/-- on a tracked plain variable destroys owned/topo
		// provenance only if it was index-valued; an incremented
		// owned index is no longer a proven owned index.
		if id, ok := unparen(n.X).(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
				delete(st, v)
			}
		}
		c.checkExpr(n.X, st, report)
	case *ast.ExprStmt:
		c.checkExpr(n.X, st, report)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.checkExpr(r, st, report)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.checkExpr(vs.Values[i], st, report)
						c.bind(name, c.class(st, vs.Values[i]), st)
					}
				}
			}
		}
	case ast.Expr:
		// Bare branch condition.
		c.checkExpr(n, st, report)
	case ast.Stmt:
		// Other statements (send, etc.): check embedded expressions.
		ast.Inspect(n, func(x ast.Node) bool {
			if e, ok := x.(ast.Expr); ok {
				c.checkExpr(e, st, report)
				return false
			}
			return true
		})
	}
}

func (c *checker) assign(n *ast.AssignStmt, st state, report reporter) {
	// Check RHS reads first, then LHS writes, then bind.
	for _, r := range n.Rhs {
		c.checkExpr(r, st, report)
	}
	for _, lhs := range n.Lhs {
		c.checkWrite(lhs, st, report)
		// Index/selector parts of the LHS are reads.
		switch l := unparen(lhs).(type) {
		case *ast.IndexExpr:
			c.checkExpr(l.Index, st, report)
		case *ast.StarExpr:
			c.checkExpr(l.X, st, report)
		case *ast.SelectorExpr:
			c.checkExpr(l.X, st, report)
		}
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				c.bind(id, c.class(st, n.Rhs[i]), st)
			}
		}
	} else {
		// Multi-value RHS: no proven provenance.
		for _, lhs := range n.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				c.bind(id, 0, st)
			}
		}
	}
}

// bind records the provenance of a freshly assigned variable.
func (c *checker) bind(id *ast.Ident, bits uint8, st state) {
	if id.Name == "_" {
		return
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	if bits == 0 {
		delete(st, v)
		return
	}
	st[v] = bits
}

func (c *checker) rangeStmt(n *ast.RangeStmt, st state, report reporter) {
	over := c.class(st, n.X)
	if v := c.stateVecOf(n.X); v != "" {
		if report != nil {
			report(n.X.Pos(), fmt.Sprintf("iterates over the whole state vector %s instead of the shard's ids", v))
		}
	}
	c.checkExpr(n.X, st, report)
	bindIdent := func(e ast.Expr, bits uint8) {
		if e == nil {
			return
		}
		if id, ok := unparen(e).(*ast.Ident); ok {
			c.bind(id, bits, st)
		}
	}
	switch {
	case over&bIdsSlice != 0:
		bindIdent(n.Key, 0)
		bindIdent(n.Value, bOwned)
	case over&bTopoSlice != 0:
		bindIdent(n.Key, 0)
		bindIdent(n.Value, bTopo)
	default:
		bindIdent(n.Key, 0)
		bindIdent(n.Value, 0)
	}
}

// class computes the provenance bits of an expression under st.
func (c *checker) class(st state, e ast.Expr) uint8 {
	info := c.pass.TypesInfo
	switch e := unparen(e).(type) {
	case *ast.Ident:
		v, ok := info.ObjectOf(e).(*types.Var)
		if !ok {
			return 0
		}
		switch v {
		case c.k.ids:
			return bIdsSlice
		case c.k.topo:
			return bTopoSrc
		}
		return st[v]
	case *ast.IndexExpr:
		base := c.class(st, e.X)
		if base&bIdsSlice != 0 {
			return bOwned
		}
		if base&bTopoSlice != 0 {
			return bTopo
		}
		return 0
	case *ast.SliceExpr:
		// Subslicing preserves slice provenance.
		return c.class(st, e.X) & (bIdsSlice | bTopoSlice)
	case *ast.CallExpr:
		// Conversions preserve provenance: int(id) is still owned.
		if tv, ok := info.Types[unparen(e.Fun)]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.class(st, e.Args[0]) & (bOwned | bTopo)
		}
		// g.Neighbors(id) yields a row slice.
		if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Neighbors" && c.class(st, sel.X)&bTopoSrc != 0 {
			return bTopoSlice
		}
		return 0
	case *ast.BinaryExpr:
		// Arithmetic on proven indices (id+1, offset math) is not a
		// proven index; only direct derivation counts. But combining
		// two values both proven the same way keeps slice bits off
		// anyway, so return 0.
		return 0
	case *ast.StarExpr:
		return c.class(st, e.X)
	}
	return 0
}

// stateVecOf returns the display name if e is (a subslice of) a state
// vector parameter, else "".
func (c *checker) stateVecOf(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.ObjectOf(e).(*types.Var); ok {
			if name, ok := c.k.stateVec[v]; ok {
				return name
			}
		}
	case *ast.SliceExpr:
		return c.stateVecOf(e.X)
	}
	return ""
}

// isFrontier reports whether e is the frontier parameter.
func (c *checker) isFrontier(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	return ok && c.k.frontier != nil && v == c.k.frontier
}

// checkWrite enforces the write rules on one assignment target.
func (c *checker) checkWrite(lhs ast.Expr, st state, report reporter) {
	if report == nil {
		return
	}
	e := unparen(lhs)
	// Peel selectors and derefs to find an index into a state vector.
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = unparen(x.X)
			continue
		case *ast.SelectorExpr:
			e = unparen(x.X)
			continue
		}
		break
	}
	if e != unparen(lhs) && c.class(st, e)&bTopoSrc != 0 {
		report(lhs.Pos(), "writes through the graph every shard reads; kernels may only read it through Neighbors, Degree and N")
		return
	}
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return
	}
	name := c.stateVecOf(idx.X)
	if name == "" {
		return
	}
	if c.k.kind == kindMark {
		report(lhs.Pos(), fmt.Sprintf("writes post-round state %s in the mark phase; marks must be side-effect-free except for the frontier", name))
		return
	}
	if c.class(st, idx.Index)&bOwned == 0 {
		report(lhs.Pos(), fmt.Sprintf("writes %s at an index not derived from the shard's ids; commits may touch only owned slots", name))
	}
}

// checkExpr enforces the read and escape rules inside one expression.
func (c *checker) checkExpr(e ast.Expr, st state, report reporter) {
	if report == nil || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			name := c.stateVecOf(n.X)
			if name == "" {
				return true
			}
			bits := c.class(st, n.Index)
			if c.k.kind == kindCommit {
				if bits&bOwned == 0 {
					report(n.Pos(), fmt.Sprintf("reads %s at an index not derived from the shard's ids", name))
				}
			} else {
				if bits&(bOwned|bTopo) == 0 {
					report(n.Pos(), fmt.Sprintf("reads %s at an index derived from neither the shard's ids nor the graph's rows", name))
				}
			}
			return true
		case *ast.CallExpr:
			c.checkCall(n, st, report)
			// Still descend to catch nested index reads inside args.
			return true
		case *ast.SelectorExpr:
			// A method call or method value on the graph: only the
			// read accessors leave the row store untouched.
			if !graphReaders[n.Sel.Name] && c.class(st, n.X)&bTopoSrc != 0 {
				report(n.Sel.Pos(), fmt.Sprintf("uses Graph.%s on the graph every shard reads; kernels may only read it through Neighbors, Degree and N", n.Sel.Name))
			}
			return true
		}
		return true
	})
}

// checkCall enforces the frontier sanction list and the no-escape rule
// for state vectors, the frontier and the graph.
func (c *checker) checkCall(call *ast.CallExpr, st state, report reporter) {
	info := c.pass.TypesInfo
	fun := unparen(call.Fun)

	// Frontier method calls.
	if sel, ok := fun.(*ast.SelectorExpr); ok && c.isFrontier(sel.X) {
		switch sel.Sel.Name {
		case "Add":
			if len(call.Args) == 1 && c.class(st, call.Args[0])&(bOwned|bTopo) == 0 {
				report(call.Args[0].Pos(), "calls Frontier.Add with an index derived from neither the shard's ids nor the graph's rows")
			}
		case "AddMask":
			if len(call.Args) >= 1 && c.class(st, call.Args[0])&(bOwned|bTopo) == 0 {
				report(call.Args[0].Pos(), "calls Frontier.AddMask with an index derived from neither the shard's ids nor the graph's rows")
			}
		default:
			report(call.Pos(), fmt.Sprintf("calls Frontier.%s in the mark phase; only Add and AddMask are sanctioned", sel.Sel.Name))
		}
		return
	}

	// len/cap on state vectors is harmless.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "len" || b.Name() == "cap" {
				return
			}
		}
	}

	// Escapes: a state vector or the frontier passed to any other call
	// leaves the analyzer's view of the phase discipline.
	for _, arg := range call.Args {
		if name := c.stateVecOf(arg); name != "" {
			report(arg.Pos(), fmt.Sprintf("passes the state vector %s to a call, escaping the shard's write-ownership discipline", name))
		}
		if c.isFrontier(arg) {
			report(arg.Pos(), "passes the frontier to a call; dirtiness must flow through Frontier.Add/AddMask only")
		}
		if c.class(st, arg)&bTopoSrc != 0 {
			report(arg.Pos(), "passes the graph to a call; kernels may only read it through Neighbors, Degree and N")
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// methodDesc renders "(T).M" for diagnostics.
func methodDesc(d *ast.FuncDecl) string {
	name := "?"
	if len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch t := t.(type) {
		case *ast.Ident:
			name = t.Name
		case *ast.IndexExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				name = id.Name
			}
		case *ast.IndexListExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				name = id.Name
			}
		}
	}
	return "(" + name + ")." + d.Name.Name
}
