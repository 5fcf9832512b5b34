// Package purity defines an analyzer enforcing the paper's core model
// assumption: a protocol move is a pure function of the node's local
// view. The self-stabilization proofs (and the repository's model
// checker, which memoizes configurations) are sound only if Move
// computes the next state from the View alone — no receiver mutation
// beyond per-node RNG draws, no package-level state, no I/O, no
// retention of the View past the call.
//
// The analyzer targets every method named Move whose single parameter
// is the protocol View type, the Random/OnNeighborLost companions on
// the same receiver types, and every function literal taking a View
// parameter (the Guard/Action closures of rule tables). Each target's
// body is checked with a flow-sensitive taint analysis over the
// control-flow graph of internal/analysis/cfg: values derived from the
// View or the receiver are tracked through local assignments, and a
// write is reported only when its access path crosses a reference
// boundary (pointer deref, slice or map indexing) into memory shared
// with the caller — plain writes to value copies, the paper's idiom
// `next := v.Self; next.Field = ...`, stay legal.
//
// Helpers are handled interprocedurally: every function in the package
// is summarized ({mutates receiver, mutates params, writes globals,
// performs I/O, retains params}) to a fixpoint, impure summaries are
// exported as facts through the driver's fact files, and call sites
// consult the callee's summary — same-package, cross-package via facts,
// or a built-in table for the standard library. The table encodes the
// sanctioned escape hatches: sync/atomic (rule-firing counters) and
// math/rand (per-node threaded generators) are pure by decree, while
// os/io/net/log/sync and the clock side of time are I/O, and
// sort/slices mutate their arguments.
//
// Indirect calls (func values, interface methods) are assumed pure:
// v.Peer and the composed inner protocols are exactly such calls, and
// their implementations are themselves analyzed wherever they are
// declared.
package purity

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"selfstab/internal/analysis/cfg"
	"selfstab/internal/analysis/lint"
)

// New returns the purity analyzer.
func New() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "purity",
		Doc: "protocol Move rules must be pure functions of the local View\n\n" +
			"Methods named Move taking the protocol View, their Random and\n" +
			"OnNeighborLost companions, and func literals taking a View are\n" +
			"checked for receiver/global/View mutation, I/O, channel and\n" +
			"goroutine operations, and View retention, using dataflow over the\n" +
			"function's CFG and cross-package function summaries.",
	}
	viewName := a.Flags.String("viewtype", "View",
		"name of the protocol view type whose consumers are checked")
	a.Run = func(pass *lint.Pass) (any, error) {
		run(pass, *viewName)
		return nil, nil
	}
	return a
}

// FnFact is the exported summary of one function: the ways it is not
// pure. A function with no fact (or a zero fact) is pure. Facts travel
// between compilation units through the driver's fact files, so a Move
// calling a helper in another package is checked against the helper's
// real behavior, not an assumption.
type FnFact struct {
	IO            bool `json:"io,omitempty"`            // I/O, sync, clock, channel, goroutine
	WritesGlobals bool `json:"writesGlobals,omitempty"` // writes package-level state
	MutatesRecv   bool `json:"mutatesRecv,omitempty"`   // writes memory reachable from receiver
	MutatesParams bool `json:"mutatesParams,omitempty"` // writes memory reachable from parameters
	RetainsParams bool `json:"retainsParams,omitempty"` // stores a parameter past the call
}

// AFact marks FnFact as a lint fact.
func (*FnFact) AFact() {}

func (f *FnFact) pure() bool {
	return !(f.IO || f.WritesGlobals || f.MutatesRecv || f.MutatesParams || f.RetainsParams)
}

// Taint classes: which caller-visible root a value or access path is
// derived from.
const (
	cView   uint8 = 1 << iota // the View parameter of the checked function
	cRecv                     // the receiver
	cParam                    // another parameter
	cGlobal                   // package-level state
)

func nounOf(cls uint8) string {
	switch {
	case cls&cView != 0:
		return "the View"
	case cls&cRecv != 0:
		return "receiver state"
	case cls&cGlobal != 0:
		return "package-level state"
	default:
		return "a parameter"
	}
}

type vkind uint8

const (
	vMutate vkind = iota // write into caller-visible memory
	vIO                  // I/O, synchronization, channel, goroutine, clock
	vRetain              // stores a parameter into longer-lived memory
)

type violation struct {
	pos  token.Pos
	kind vkind
	cls  uint8
	msg  string
}

// analysis is the per-package run state.
type analysis struct {
	pass      *lint.Pass
	viewName  string
	summaries map[*types.Func]*FnFact
	// targetLits are func literals checked as standalone targets, so the
	// enclosing function's walk skips them instead of double-reporting.
	targetLits map[*ast.FuncLit]bool
	refMemo    map[types.Type]bool
}

func run(pass *lint.Pass, viewName string) {
	an := &analysis{
		pass:       pass,
		viewName:   viewName,
		summaries:  map[*types.Func]*FnFact{},
		targetLits: map[*ast.FuncLit]bool{},
		refMemo:    map[types.Type]bool{},
	}

	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	// Summarize every function to a fixpoint so same-package helpers —
	// including mutually recursive ones — carry accurate summaries
	// before any target is diagnosed. Flags only ever turn on, so the
	// iteration is monotone; the bound is a safety net.
	for iter := 0; iter < 12; iter++ {
		changed := false
		for _, d := range decls {
			fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			got := an.summarize(d)
			if old := an.summaries[fn]; old == nil || *old != *got {
				an.summaries[fn] = got
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Export impure summaries so dependent packages see them.
	for _, d := range decls {
		fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
		if !ok {
			continue
		}
		if fact := an.summaries[fn]; fact != nil && !fact.pure() {
			pass.ExportObjectFact(fn, fact)
		}
	}

	an.diagnoseTargets(decls)
}

// summarize computes the purity summary of one declared function.
func (an *analysis) summarize(d *ast.FuncDecl) *FnFact {
	fr := an.newFrame(d.Recv, d.Type.Params, nil, false)
	fr.analyze(d.Body)
	fact := &FnFact{}
	for _, v := range fr.viols {
		switch v.kind {
		case vIO:
			fact.IO = true
		case vMutate:
			if v.cls&cGlobal != 0 {
				fact.WritesGlobals = true
			}
			if v.cls&cRecv != 0 {
				fact.MutatesRecv = true
			}
			if v.cls&(cParam|cView) != 0 {
				fact.MutatesParams = true
			}
		case vRetain:
			if v.cls&(cParam|cView) != 0 {
				fact.RetainsParams = true
			}
		}
	}
	return fact
}

// diagnoseTargets finds the protocol-shaped functions and reports their
// violations.
func (an *analysis) diagnoseTargets(decls []*ast.FuncDecl) {
	type target struct {
		desc string
		decl *ast.FuncDecl
		lit  *ast.FuncLit
	}
	var targets []target

	// Move methods with a single View parameter, and the receiver types
	// that carry them.
	moveRecv := map[*types.TypeName]bool{}
	for _, d := range decls {
		if d.Recv == nil || d.Name.Name != "Move" {
			continue
		}
		fn, ok := an.pass.TypesInfo.Defs[d.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 1 || !an.isViewType(sig.Params().At(0).Type()) {
			continue
		}
		tn := recvTypeName(sig)
		if tn != nil {
			moveRecv[tn] = true
		}
		targets = append(targets, target{desc: methodDesc(tn, "Move"), decl: d})
	}
	// Random/OnNeighborLost companions on the same protocol types.
	for _, d := range decls {
		if d.Recv == nil || (d.Name.Name != "Random" && d.Name.Name != "OnNeighborLost") {
			continue
		}
		fn, ok := an.pass.TypesInfo.Defs[d.Name].(*types.Func)
		if !ok {
			continue
		}
		tn := recvTypeName(fn.Type().(*types.Signature))
		if tn == nil || !moveRecv[tn] {
			continue
		}
		targets = append(targets, target{desc: methodDesc(tn, d.Name.Name), decl: d})
	}
	// Func literals taking a View: the Guard/Action closures of rule
	// tables, wherever they appear.
	for _, file := range an.pass.Files {
		if lint.IsTestFile(an.pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, field := range lit.Type.Params.List {
				if t := an.pass.TypesInfo.TypeOf(field.Type); t != nil && an.isViewType(t) {
					an.targetLits[lit] = true
					targets = append(targets, target{desc: "protocol rule function", lit: lit})
					break
				}
			}
			return true
		})
	}

	for _, t := range targets {
		var fr *frame
		if t.decl != nil {
			fr = an.newFrame(t.decl.Recv, t.decl.Type.Params, t.decl, true)
			fr.analyze(t.decl.Body)
		} else {
			fr = an.newFrame(nil, t.lit.Type.Params, nil, true)
			fr.skipLit = t.lit
			fr.analyze(t.lit.Body)
		}
		for _, v := range fr.viols {
			switch v.kind {
			case vMutate:
				if v.cls&(cView|cRecv|cGlobal) == 0 {
					continue // plain parameter mutation: Random advancing its rng
				}
			case vRetain:
				if v.cls&cView == 0 {
					continue
				}
			case vIO:
				// Observable effects are violations regardless of which
				// value carried them.
			}
			an.pass.Reportf(v.pos, "%s must be a pure function of the local view: %s", t.desc, v.msg)
		}
	}
}

// newFrame prepares the per-function walk state. moveDecl, when
// non-nil, marks a Move target whose single parameter is classed as the
// View; otherwise View-typed parameters are classed cView and the rest
// cParam.
func (an *analysis) newFrame(recv *ast.FieldList, params *ast.FieldList, moveDecl *ast.FuncDecl, descend bool) *frame {
	fr := &frame{an: an, params: map[*types.Var]uint8{}, descendLits: descend}
	if recv != nil && len(recv.List) > 0 && len(recv.List[0].Names) > 0 {
		if v, ok := an.pass.TypesInfo.Defs[recv.List[0].Names[0]].(*types.Var); ok {
			fr.recv = v
		}
	}
	if params != nil {
		for _, field := range params.List {
			cls := cParam
			if t := an.pass.TypesInfo.TypeOf(field.Type); t != nil && an.isViewType(t) {
				cls = cView
			}
			for _, name := range field.Names {
				if v, ok := an.pass.TypesInfo.Defs[name].(*types.Var); ok {
					fr.params[v] = cls
				}
			}
		}
	}
	return fr
}

func (an *analysis) isViewType(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == an.viewName
}

func recvTypeName(sig *types.Signature) *types.TypeName {
	if sig.Recv() == nil {
		return nil
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func methodDesc(tn *types.TypeName, method string) string {
	if tn == nil {
		return method
	}
	return "(" + tn.Name() + ")." + method
}

// state maps tracked local variables to the taint classes of what they
// may reference. Receiver, parameters, and globals are classified
// structurally and never appear as keys.
type state = map[*types.Var]uint8

func cloneState(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// frame walks one function body: the taint problem's transfer function
// and the violation checks share its step method.
type frame struct {
	an          *analysis
	recv        *types.Var
	params      map[*types.Var]uint8
	descendLits bool
	skipLit     *ast.FuncLit // the target literal itself, when analyzing one
	viols       []violation
}

func (f *frame) emit(pos token.Pos, kind vkind, cls uint8, msg string) {
	f.viols = append(f.viols, violation{pos: pos, kind: kind, cls: cls, msg: msg})
}

func (f *frame) emitIO(pos token.Pos, msg string) { f.emit(pos, vIO, 0, msg) }

type taintProblem struct{ f *frame }

func (p taintProblem) Init() state { return state{} }

func (p taintProblem) Join(a, b state) state {
	u := cloneState(a)
	for k, v := range b {
		u[k] |= v
	}
	return u
}

func (p taintProblem) Equal(a, b state) bool {
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

func (p taintProblem) Transfer(b *cfg.Block, in state) state {
	st := cloneState(in)
	for _, n := range b.Nodes {
		p.f.step(st, n, false)
	}
	return st
}

// analyze solves the taint problem over the body's CFG, then replays
// each block from its fixpoint IN state with checks enabled.
func (f *frame) analyze(body *ast.BlockStmt) {
	g := cfg.New(body)
	ins := cfg.Solve[state](g, taintProblem{f})
	for i, blk := range g.Blocks {
		st := cloneState(ins[i])
		for _, n := range blk.Nodes {
			f.step(st, n, true)
		}
	}
}

// step applies one CFG node to the taint state; with check set it also
// records violations.
func (f *frame) step(st state, n ast.Node, check bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		f.assign(st, n, check)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var taint uint8
					if i < len(vs.Values) {
						if check {
							f.checkExpr(st, vs.Values[i])
						}
						taint = f.taintOf(st, vs.Values[i])
					} else if len(vs.Values) == 1 {
						if check && i == 0 {
							f.checkExpr(st, vs.Values[0])
						}
						taint = f.taintOf(st, vs.Values[0])
					}
					f.bindLocal(st, name, taint, true)
				}
			}
		}
	case *ast.RangeStmt:
		// The range expression is a separate CFG node; here only the
		// per-iteration variables are (re)bound.
		cls := f.taintOf(st, n.X)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := f.objOf(id).(*types.Var); ok && f.baseClass(v) == 0 {
				if cls != 0 && f.an.refCarrying(v.Type()) {
					st[v] = cls
				} else {
					delete(st, v)
				}
			}
		}
	case *ast.IncDecStmt:
		if check {
			f.checkWrite(st, n.X, 0, n.Pos())
			f.checkExpr(st, n.X)
		}
	case *ast.SendStmt:
		if check {
			f.emitIO(n.Arrow, "sends on a channel")
			f.checkExpr(st, n.Chan)
			f.checkExpr(st, n.Value)
		}
	case *ast.GoStmt:
		if check {
			f.emitIO(n.Pos(), "starts a goroutine")
			f.checkExpr(st, n.Call)
		}
	case *ast.DeferStmt:
		if check {
			f.checkExpr(st, n.Call)
		}
	case *ast.ExprStmt:
		if check {
			f.checkExpr(st, n.X)
		}
	case *ast.ReturnStmt:
		if check {
			for _, r := range n.Results {
				f.checkExpr(st, r)
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	case ast.Expr:
		// Control expressions: conditions, switch tags, case lists,
		// range collections.
		if check {
			f.checkExpr(st, n)
		}
	}
}

// assign threads taints through an assignment and checks its writes.
func (f *frame) assign(st state, n *ast.AssignStmt, check bool) {
	if check {
		for _, r := range n.Rhs {
			f.checkExpr(st, r)
		}
		for _, l := range n.Lhs {
			f.checkExpr(st, l) // calls inside index expressions
		}
	}
	taints := make([]uint8, len(n.Lhs))
	if len(n.Rhs) == len(n.Lhs) {
		for i := range n.Rhs {
			taints[i] = f.taintOf(st, n.Rhs[i])
		}
	} else if len(n.Rhs) == 1 {
		t := f.taintOf(st, n.Rhs[0])
		for i := range taints {
			taints[i] = t
		}
	}
	for i, l := range n.Lhs {
		if check {
			f.checkWrite(st, l, taints[i], l.Pos())
		}
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
			f.bindLocal(st, id, taints[i], n.Tok == token.ASSIGN || n.Tok == token.DEFINE)
		}
	}
}

// bindLocal updates the taint of a plain local variable. replace
// distinguishes x = e (new referent) from x += e (accumulating).
func (f *frame) bindLocal(st state, id *ast.Ident, taint uint8, replace bool) {
	v, ok := f.objOf(id).(*types.Var)
	if !ok || f.baseClass(v) != 0 {
		return
	}
	if replace {
		st[v] = taint
	} else {
		st[v] |= taint
	}
	if st[v] == 0 {
		delete(st, v)
	}
}

// checkWrite reports an assignment whose target is caller-visible
// memory: any write rooted at a global, or a write whose access path
// crosses a reference boundary from the View, the receiver, a
// parameter, or a local tainted by one of them.
func (f *frame) checkWrite(st state, lhs ast.Expr, rhsTaint uint8, pos token.Pos) {
	root, crosses := f.pathRoot(lhs)
	cls := f.classifyObj(st, root)
	if cls == 0 {
		return
	}
	if cls&cGlobal == 0 && !crosses {
		return // writing a value copy: `next := v.Self; next.Field = ...`
	}
	msg := fmt.Sprintf("writes %s", nounOf(cls))
	if crosses {
		msg += " through shared memory"
	}
	f.emit(pos, vMutate, cls, msg)
	if rhsTaint&(cView|cParam) != 0 && cls&(cGlobal|cRecv) != 0 {
		f.emit(pos, vRetain, rhsTaint&(cView|cParam),
			fmt.Sprintf("stores %s into %s, retaining it past the call", nounOf(rhsTaint), nounOf(cls)))
	}
}

// checkExpr inspects an expression (descending into func literal bodies
// when enabled) for calls, channel operations, and — inside literals —
// writes.
func (f *frame) checkExpr(st state, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == f.skipLit {
				return true // the target literal's own body
			}
			if !f.descendLits || f.an.targetLits[n] {
				return false
			}
			return true
		case *ast.CallExpr:
			f.checkCall(st, n)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				f.emitIO(n.Pos(), "receives from a channel")
			}
		case *ast.SendStmt:
			f.emitIO(n.Arrow, "sends on a channel")
		case *ast.GoStmt:
			f.emitIO(n.Pos(), "starts a goroutine")
		case *ast.AssignStmt:
			// Reached only inside descended func literals; the taint
			// state is the enclosing function's (captured variables keep
			// their classes, literal-local variables are untracked).
			taints := make([]uint8, len(n.Lhs))
			if len(n.Rhs) == len(n.Lhs) {
				for i := range n.Rhs {
					taints[i] = f.taintOf(st, n.Rhs[i])
				}
			} else if len(n.Rhs) == 1 {
				t := f.taintOf(st, n.Rhs[0])
				for i := range taints {
					taints[i] = t
				}
			}
			for i, l := range n.Lhs {
				f.checkWrite(st, l, taints[i], l.Pos())
			}
		case *ast.IncDecStmt:
			f.checkWrite(st, n.X, 0, n.Pos())
		}
		return true
	})
}

// checkCall applies the callee's purity summary at a call site.
func (f *frame) checkCall(st state, call *ast.CallExpr) {
	if tv, ok := f.an.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: F[T](...).
	switch fx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(fx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(fx.X)
	}
	var obj types.Object
	var recvExpr ast.Expr
	switch fx := fun.(type) {
	case *ast.Ident:
		obj = f.objOf(fx)
	case *ast.SelectorExpr:
		obj = f.an.pass.TypesInfo.Uses[fx.Sel]
		if sel, ok := f.an.pass.TypesInfo.Selections[fx]; ok && sel.Kind() == types.MethodVal {
			recvExpr = fx.X
		}
	default:
		return // indirect call of a computed function value: assumed pure
	}
	switch o := obj.(type) {
	case *types.Builtin:
		f.builtinCall(st, o.Name(), call)
	case *types.Func:
		f.applySummary(st, o, call, recvExpr)
	}
}

func (f *frame) applySummary(st state, fn *types.Func, call *ast.CallExpr, recvExpr ast.Expr) {
	sum := f.an.summaryFor(fn.Origin())
	if sum == nil || sum.pure() {
		return
	}
	name := f.callName(fn)
	if sum.IO {
		f.emitIO(call.Pos(), fmt.Sprintf("calls %s, which performs I/O or blocks", name))
	}
	if sum.WritesGlobals {
		f.emit(call.Pos(), vMutate, cGlobal, fmt.Sprintf("calls %s, which writes package-level state", name))
	}
	if sum.MutatesRecv && recvExpr != nil {
		root, _ := f.pathRoot(recvExpr)
		if cls := f.classifyObj(st, root); cls != 0 {
			f.emit(call.Pos(), vMutate, cls,
				fmt.Sprintf("calls %s, which mutates state reachable from %s", name, nounOf(cls)))
		}
	}
	if sum.MutatesParams {
		for _, arg := range call.Args {
			// Function-typed arguments are callbacks (sort.Slice's less),
			// not the data the callee mutates.
			if t := f.typeOf(arg); t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Signature); ok {
					continue
				}
			}
			if cls := f.taintOf(st, arg); cls != 0 {
				f.emit(arg.Pos(), vMutate, cls,
					fmt.Sprintf("passes %s to %s, which mutates its argument", nounOf(cls), name))
			}
		}
	}
	if sum.RetainsParams {
		for _, arg := range call.Args {
			if cls := f.taintOf(st, arg) & (cView | cRecv | cParam); cls != 0 {
				f.emit(arg.Pos(), vRetain, cls,
					fmt.Sprintf("passes %s to %s, which retains it past the call", nounOf(cls), name))
			}
		}
	}
}

func (f *frame) builtinCall(st state, name string, call *ast.CallExpr) {
	switch name {
	case "append", "copy", "delete", "clear":
		if len(call.Args) == 0 {
			return
		}
		if cls := f.taintOf(st, call.Args[0]); cls != 0 {
			verb := map[string]string{
				"append": "may write through the backing array of",
				"copy":   "writes into",
				"delete": "deletes from",
				"clear":  "clears",
			}[name]
			f.emit(call.Pos(), vMutate, cls, fmt.Sprintf("%s %s %s", name, verb, nounOf(cls)))
		}
	case "close":
		f.emitIO(call.Pos(), "closes a channel")
	case "print", "println":
		f.emitIO(call.Pos(), "calls builtin "+name)
	}
}

// callName renders a callee for diagnostics: pkg.Type.Method or
// pkg.Func, omitting the package when it is the one under analysis.
func (f *frame) callName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok {
		if tn := recvTypeName(sig); tn != nil {
			name = tn.Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != f.an.pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// pathRoot peels an access path down to its root object, reporting
// whether the path crossed a reference boundary (pointer deref, slice
// or map index, reslice) — the line between mutating a private copy and
// mutating memory shared with the caller.
func (f *frame) pathRoot(e ast.Expr) (types.Object, bool) {
	crosses := false
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return f.objOf(x), crosses
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := f.objOf(id).(*types.PkgName); isPkg {
					return f.an.pass.TypesInfo.Uses[x.Sel], crosses
				}
			}
			if t := f.typeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					crosses = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if t := f.typeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					crosses = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexListExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			crosses = true
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			crosses = true
			e = ast.Unparen(x.X)
		default:
			return nil, crosses
		}
	}
}

// classifyObj maps an object to its taint classes: the structural
// classes of the receiver, parameters, and globals, or the tracked
// taint of a local.
func (f *frame) classifyObj(st state, obj types.Object) uint8 {
	v, ok := obj.(*types.Var)
	if !ok {
		return 0
	}
	if cls := f.baseClass(v); cls != 0 {
		return cls
	}
	return st[v]
}

// baseClass is classifyObj without the local-taint lookup.
func (f *frame) baseClass(v *types.Var) uint8 {
	if f.recv != nil && v == f.recv {
		return cRecv
	}
	if cls, ok := f.params[v]; ok {
		return cls
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return cGlobal
	}
	return 0
}

// taintOf computes the taint classes an expression's value may carry.
// Only reference-carrying values propagate taint: copying v.Self (a
// value struct) launders it, copying v.Nbrs (a slice) does not.
func (f *frame) taintOf(st state, e ast.Expr) uint8 {
	e = ast.Unparen(e)
	t := f.typeOf(e)
	if t == nil || !f.an.refCarrying(t) {
		return 0
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if tv, ok := f.an.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			return f.taintOf(st, call.Args[0]) // conversion preserves aliasing
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := f.objOf(id).(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				return f.taintOf(st, call.Args[0]) // append may share arg0's array
			}
		}
		return 0 // other call results: treated as fresh values
	}
	return f.mentions(st, e)
}

// mentions unions the classes of every variable referenced in e,
// including captures inside func literals (a closure over the View
// retains it).
func (f *frame) mentions(st state, e ast.Expr) uint8 {
	var cls uint8
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			cls |= f.classifyObj(st, f.objOf(id))
		}
		return true
	})
	return cls
}

func (f *frame) objOf(id *ast.Ident) types.Object {
	if o := f.an.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return f.an.pass.TypesInfo.Defs[id]
}

func (f *frame) typeOf(e ast.Expr) types.Type {
	return f.an.pass.TypesInfo.TypeOf(e)
}

// summaryFor resolves a callee's summary: same-package fixpoint result,
// imported fact, or the standard-library table. Absence means pure.
func (an *analysis) summaryFor(fn *types.Func) *FnFact {
	if s, ok := an.summaries[fn]; ok {
		return s
	}
	if fn.Pkg() == nil {
		return nil // error.Error and friends
	}
	if fn.Pkg() != an.pass.Pkg {
		var fact FnFact
		if an.pass.ImportObjectFact(fn, &fact) {
			return &fact
		}
	}
	return stdlibSummary(fn.Pkg().Path(), fn.Name())
}

// stdlibSummary encodes the purity contract of the standard library
// slices protocol code touches, including the two sanctioned impurities
// of the paper's model: sync/atomic (observability counters) and
// math/rand (per-node threaded generators, whose draws are the
// randomized protocols' coin flips).
func stdlibSummary(path, name string) *FnFact {
	switch path {
	case "sync/atomic", "math/rand", "math/rand/v2", "errors", "strings", "strconv", "math", "math/bits", "unicode", "unicode/utf8", "bytes", "cmp":
		return nil
	case "os", "io", "io/fs", "io/ioutil", "bufio", "net", "net/http", "net/url",
		"log", "log/slog", "os/exec", "os/signal", "syscall", "runtime",
		"runtime/pprof", "runtime/trace", "runtime/debug", "database/sql",
		"encoding/csv", "flag", "testing":
		return &FnFact{IO: true}
	case "sync":
		return &FnFact{IO: true} // Lock/Wait block; a Move must not
	case "time":
		switch name {
		case "Now", "Since", "Until", "Sleep", "Tick", "After", "AfterFunc", "NewTimer", "NewTicker":
			return &FnFact{IO: true}
		}
		return nil
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
			strings.HasPrefix(name, "Scan") || strings.HasPrefix(name, "Fscan") ||
			strings.HasPrefix(name, "Sscan") {
			return &FnFact{IO: true}
		}
		return nil
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Ints", "Strings", "Float64s":
			return &FnFact{MutatesParams: true}
		}
		return nil
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc", "Reverse", "Compact", "CompactFunc",
			"Delete", "DeleteFunc", "Insert", "Replace":
			return &FnFact{MutatesParams: true}
		}
		return nil
	case "maps":
		switch name {
		case "Copy", "DeleteFunc", "Insert":
			return &FnFact{MutatesParams: true}
		}
		return nil
	case "container/heap", "container/list", "container/ring":
		return &FnFact{MutatesRecv: true, MutatesParams: true}
	}
	return nil
}

// refCarrying reports whether values of t can reference memory shared
// with other values: pointers, slices, maps, channels, funcs,
// interfaces, and aggregates containing them. Copying a non-carrying
// value severs all aliasing, which is what makes `next := v.Self` pure.
func (an *analysis) refCarrying(t types.Type) bool {
	if r, ok := an.refMemo[t]; ok {
		return r
	}
	an.refMemo[t] = false // cycle-breaker; real cycles go through pointers anyway
	r := refCarrying1(an, t)
	an.refMemo[t] = r
	return r
}

func refCarrying1(an *analysis, t types.Type) bool {
	tt := types.Unalias(t)
	// The protocols' state parameter S is constrained comparable and
	// instantiated with value structs; treating type parameters as
	// non-carrying is what lets `next := v.Self` stay pure generically.
	// Checked before Underlying, which for a type parameter is the
	// constraint interface. Documented approximation.
	if _, ok := tt.(*types.TypeParam); ok {
		return false
	}
	switch u := tt.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if an.refCarrying(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return an.refCarrying(u.Elem())
	default:
		return false
	}
}
