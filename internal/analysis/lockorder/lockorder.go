// Package lockorder defines an analyzer that derives the program's
// lock-acquisition order and reports cycles in it. Two goroutines that
// acquire the same pair of mutexes in opposite orders can deadlock; the
// race detector cannot see it (no data race happens) and the soak
// harness only catches it when the interleaving fires. The analyzer
// turns the discipline into a static check: every "acquire B while
// holding A" site contributes an edge A→B, the edges of every package
// are exported as facts and merged transitively, and any local edge
// that closes a cycle in the merged graph is reported at its
// acquisition site.
//
// Lock identity is structural: a mutex is named by its owning struct
// field ("pkg.Type.field") or by its package-level variable
// ("pkg.var"). Mutexes held in local variables have no cross-function
// identity and are ignored. Held-lock sets are computed with a forward
// may-hold dataflow over the function's CFG: Lock/RLock adds the class,
// Unlock/RUnlock removes it, deferred unlocks release at return and so
// keep the lock held for the rest of the function, which is exactly the
// window in which nested acquisitions order themselves after it.
//
// Calls are handled interprocedurally: each function's set of possibly
// acquired classes is summarized (to a fixpoint within the package,
// through exported object facts across packages), and calling a
// function that acquires B while holding A records A→B — this is how a
// lock held in one package orders itself against one a callee in
// another package acquires.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"selfstab/internal/analysis/cfg"
	"selfstab/internal/analysis/lint"
)

// New returns the lockorder analyzer.
func New() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "lockorder",
		Doc: "report cycles in the cross-package mutex acquisition order\n\n" +
			"Acquiring a mutex while holding another records an order edge;\n" +
			"edges are exported as facts, merged across packages, and any local\n" +
			"acquisition that closes a cycle is reported.",
	}
	a.Run = func(pass *lint.Pass) (any, error) {
		run(pass)
		return nil, nil
	}
	return a
}

// AcquiresFact summarizes the lock classes a function may acquire,
// directly or through callees.
type AcquiresFact struct {
	Locks []string `json:"locks"`
}

// AFact marks AcquiresFact as a lint fact.
func (*AcquiresFact) AFact() {}

// EdgesFact is a package's contribution to the global acquisition-order
// graph.
type EdgesFact struct {
	Edges []Edge `json:"edges"`
}

// AFact marks EdgesFact as a lint fact.
func (*EdgesFact) AFact() {}

// Edge records that To was acquired while From was held, at At
// (file:line, for diagnostics in dependent packages).
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
	At   string `json:"at"`
}

// localEdge is an edge observed in this package, with its real
// position.
type localEdge struct {
	from, to string
	pos      token.Pos
}

type analysis struct {
	pass     *lint.Pass
	acquires map[*types.Func][]string // same-package summaries
	edges    []localEdge
	edgeSeen map[string]bool
}

func run(pass *lint.Pass) {
	an := &analysis{pass: pass, acquires: map[*types.Func][]string{}, edgeSeen: map[string]bool{}}

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

	// Acquire-set summaries to a fixpoint (call chains within the
	// package; sets only grow, so iteration terminates).
	for iter := 0; iter < 12; iter++ {
		changed := false
		for _, d := range decls {
			fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			got := an.summarizeAcquires(d)
			if !equalStrings(an.acquires[fn], got) {
				an.acquires[fn] = got
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, d := range decls {
		fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
		if !ok {
			continue
		}
		if locks := an.acquires[fn]; len(locks) > 0 {
			pass.ExportObjectFact(fn, &AcquiresFact{Locks: locks})
		}
	}

	// Edge collection with the may-hold lockset dataflow.
	for _, d := range decls {
		an.collectEdges(d)
	}

	// Export this package's edges and merge with every dependency's.
	if len(an.edges) > 0 {
		fact := &EdgesFact{}
		for _, e := range an.edges {
			fact.Edges = append(fact.Edges, Edge{
				From: e.from, To: e.to, At: pass.Fset.Position(e.pos).String(),
			})
		}
		sort.Slice(fact.Edges, func(i, j int) bool {
			a, b := fact.Edges[i], fact.Edges[j]
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.At < b.At
		})
		pass.ExportPackageFact(fact)
	}

	an.reportCycles()
}

// reportCycles builds the merged graph (imported package facts plus
// this package's edges) and reports every local edge whose reverse
// direction is already reachable.
func (an *analysis) reportCycles() {
	succs := map[string][]Edge{}
	addEdge := func(e Edge) {
		succs[e.From] = append(succs[e.From], e)
	}
	for _, pf := range an.pass.AllPackageFacts(func() lint.Fact { return &EdgesFact{} }) {
		for _, e := range pf.Fact.(*EdgesFact).Edges {
			addEdge(e)
		}
	}

	for _, le := range an.edges {
		if witness := findPath(succs, le.to, le.from); witness != nil {
			an.pass.Reportf(le.pos,
				"lock order cycle: acquires %s while holding %s, but %s is already ordered before %s (edge recorded at %s)",
				le.to, le.from, le.to, le.from, witness.At)
		}
	}
}

// findPath BFSes the edge graph from src to dst, returning the first
// edge of a path as the witness, or nil.
func findPath(succs map[string][]Edge, src, dst string) *Edge {
	type item struct {
		node  string
		first *Edge
	}
	seen := map[string]bool{src: true}
	queue := []item{{node: src}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for i := range succs[it.node] {
			e := &succs[it.node][i]
			first := it.first
			if first == nil {
				first = e
			}
			if e.To == dst {
				return first
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, item{node: e.To, first: first})
			}
		}
	}
	return nil
}

// summarizeAcquires computes the classes a function may acquire:
// flow-insensitive, since holding windows do not matter for the
// summary, only the set.
func (an *analysis) summarizeAcquires(d *ast.FuncDecl) []string {
	set := map[string]bool{}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cls, op := an.mutexOp(call); cls != "" && (op == opLock) {
			set[cls] = true
		} else if op == opNone {
			for _, a := range an.calleeAcquires(call) {
				set[a] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// collectEdges runs the may-hold dataflow over one function and records
// an order edge for every acquisition performed under held locks.
func (an *analysis) collectEdges(d *ast.FuncDecl) {
	g := cfg.New(d.Body)
	prob := locksetProblem{an: an}
	ins := cfg.Solve[lockset](g, prob)
	for i, blk := range g.Blocks {
		st := cloneSet(ins[i])
		for _, n := range blk.Nodes {
			an.step(st, n, true)
		}
	}
}

// lockset is the set of lock classes possibly held at a program point.
type lockset = map[string]bool

func cloneSet(s lockset) lockset {
	c := make(lockset, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type locksetProblem struct{ an *analysis }

func (p locksetProblem) Init() lockset { return lockset{} }

func (p locksetProblem) Join(a, b lockset) lockset {
	u := cloneSet(a)
	for k := range b {
		u[k] = true
	}
	return u
}

func (p locksetProblem) Equal(a, b lockset) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (p locksetProblem) Transfer(b *cfg.Block, in lockset) lockset {
	st := cloneSet(in)
	for _, n := range b.Nodes {
		p.an.step(st, n, false)
	}
	return st
}

// step applies one CFG node to the lockset; with emit set it records
// order edges.
func (an *analysis) step(st lockset, n ast.Node, emit bool) {
	deferred := false
	if ds, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = ds.Call
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false // closure bodies run later; not part of this window
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		cls, op := an.mutexOp(call)
		switch op {
		case opLock:
			if cls == "" {
				return true
			}
			if emit {
				held := make([]string, 0, len(st))
				for h := range st {
					if h != cls {
						held = append(held, h)
					}
				}
				sort.Strings(held)
				for _, h := range held {
					an.recordEdge(h, cls, call.Pos())
				}
			}
			st[cls] = true
		case opUnlock:
			// A deferred unlock releases at return: the lock stays held
			// through the rest of the function, which is the window the
			// edges must cover.
			if cls != "" && !deferred {
				delete(st, cls)
			}
		case opNone:
			for _, a := range an.calleeAcquires(call) {
				if emit {
					held := make([]string, 0, len(st))
					for h := range st {
						if h != a {
							held = append(held, h)
						}
					}
					sort.Strings(held)
					for _, h := range held {
						an.recordEdge(h, a, call.Pos())
					}
				}
			}
		}
		return true
	})
}

func (an *analysis) recordEdge(from, to string, pos token.Pos) {
	key := from + "\x00" + to
	if an.edgeSeen[key] {
		return
	}
	an.edgeSeen[key] = true
	an.edges = append(an.edges, localEdge{from: from, to: to, pos: pos})
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp classifies a call as a lock or unlock on an identifiable
// mutex class. Calls that are mutex operations on unidentifiable
// mutexes return ("", opLock/opUnlock) so they neither record edges nor
// fall through to summary handling.
func (an *analysis) mutexOp(call *ast.CallExpr) (string, mutexOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := an.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", opNone
	}
	recv := recvBase(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", opNone
	}
	var op mutexOpKind
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", opNone // Locker interface helpers etc.
	}
	return an.mutexClass(sel), op
}

func recvBase(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// mutexClass names the mutex a Lock/Unlock selector operates on:
// "pkg.Type.field" for struct fields (including promoted embedded
// mutexes), "pkg.var" for package-level variables, "" when the mutex
// has no stable identity (locals, map elements).
func (an *analysis) mutexClass(sel *ast.SelectorExpr) string {
	// Promoted embedding: s.Lock() where s's struct embeds sync.Mutex.
	if s, ok := an.pass.TypesInfo.Selections[sel]; ok && len(s.Index()) > 1 {
		if named := namedOf(an.pass.TypesInfo.TypeOf(sel.X)); named != nil {
			if st, ok := named.Underlying().(*types.Struct); ok {
				f := st.Field(s.Index()[0])
				return typeClass(named) + "." + f.Name()
			}
		}
	}
	e := ast.Unparen(sel.X)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// pkg.Var?
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := an.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				if v, ok := an.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
					return varClass(v)
				}
				return ""
			}
		}
		// owner.field
		if named := namedOf(an.pass.TypesInfo.TypeOf(x.X)); named != nil {
			return typeClass(named) + "." + x.Sel.Name
		}
		return ""
	case *ast.Ident:
		if v, ok := an.objOf(x).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return varClass(v)
		}
		return ""
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

func typeClass(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func varClass(v *types.Var) string {
	if v.Pkg() == nil {
		return v.Name()
	}
	return v.Pkg().Path() + "." + v.Name()
}

// calleeAcquires resolves the acquire-set summary of a direct callee:
// same-package fixpoint result or imported fact. Indirect calls are
// assumed lock-free.
func (an *analysis) calleeAcquires(call *ast.CallExpr) []string {
	fun := ast.Unparen(call.Fun)
	switch fx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(fx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(fx.X)
	}
	var obj types.Object
	switch fx := fun.(type) {
	case *ast.Ident:
		obj = an.objOf(fx)
	case *ast.SelectorExpr:
		obj = an.pass.TypesInfo.Uses[fx.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	orig := fn.Origin()
	if locks, ok := an.acquires[orig]; ok {
		return locks
	}
	if orig.Pkg() != nil && orig.Pkg() != an.pass.Pkg {
		var fact AcquiresFact
		if an.pass.ImportObjectFact(orig, &fact) {
			return fact.Locks
		}
	}
	return nil
}

func (an *analysis) objOf(id *ast.Ident) types.Object {
	if o := an.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return an.pass.TypesInfo.Defs[id]
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders an edge for debugging.
func (e Edge) String() string {
	return fmt.Sprintf("%s -> %s @ %s", e.From, e.To, e.At)
}
