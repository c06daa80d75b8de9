// Package arenaesc flags arena-backed scratch values that escape
// their owner. The router's Arena (and the steiner builder riding on
// it) recycle every slice and Route object between jobs — that is the
// 78× allocation win — so any value returned by a scratch-marked
// function aliases memory the owner will overwrite on its next
// search, Reset or Release. The Go escape analyzer cannot see this
// (the memory is reachable, just semantically dead), and a retained
// path or route silently turns into another net's geometry.
//
// Functions whose results alias recycled scratch carry a
// //sadplint:scratch <reason> directive. The analyzer exports that
// marking as a cross-package fact and then runs a forward dataflow
// over each function's CFG, tracking which locals are tainted by a
// scratch call. It reports when a tainted value
//
//   - is returned from a function not itself marked scratch,
//   - is stored into a struct field, map or slice element (long-lived
//     memory) outside the owner package's own scratch functions,
//   - is sent over a channel or captured by a `go` statement, or
//   - is used after the owner's Reset/Release — or after a
//     second call to the same scratch function — invalidated it.
package arenaesc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analyzers/lint"
)

// Analyzer is the arenaesc pass.
var Analyzer = &lint.Analyzer{
	Name: "arenaesc",
	Doc: "report arena/steiner scratch values escaping their owner " +
		"(returns, stores, sends, goroutine captures, use after Reset/Release)",
	Run: run,
}

// invalidators are method names whose call invalidates every live
// scratch value of the receiver's owner. Matched by name: the owners
// (router.Arena's Release, grid.Route's Reset) use this vocabulary,
// and a false stale-marking only makes the analyzer more conservative
// about later uses, never less.
var invalidators = map[string]bool{
	"Reset":   true,
	"Release": true,
}

// taint records where a tainted value came from and whether the
// backing scratch has since been invalidated.
type taint struct {
	src   string // ObjectKey of the scratch function that produced it
	stale bool
}

type state map[types.Object]taint

func run(pass *lint.Pass) error {
	files := pass.NonTestFiles()

	// Pass 1: export the scratch marking of every annotated function as
	// a fact, so both later functions in this package and downstream
	// packages resolve calls to them as taint sources.
	scratchFns := map[*ast.FuncDecl]bool{}
	for _, f := range files {
		dirs := lint.Directives(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := lint.FuncDirective(pass.Fset, dirs, fd, "scratch"); ok {
				scratchFns[fd] = true
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					pass.ExportFact(obj, "scratch")
				}
			}
		}
	}

	// Pass 2: per-function dataflow.
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &analysis{pass: pass, inScratch: scratchFns[fd]}
			a.analyze(fd.Body)
		}
	}
	return nil
}

type analysis struct {
	pass      *lint.Pass
	inScratch bool
	report    bool
	seen      map[string]bool // dedupe key: "pos\x00message"
}

func (a *analysis) analyze(body *ast.BlockStmt) {
	g := lint.BuildCFG(body)
	flow := lint.Flow[state]{
		Entry: state{},
		Copy:  copyState,
		Join:  joinState,
		Transfer: func(n ast.Node, blk *lint.Block, s state) {
			a.transfer(n, s)
		},
	}
	in := lint.Forward(g, flow)

	// Reporting pass: one deterministic sweep per block over the
	// fixpoint states, so fixpoint re-iteration cannot duplicate
	// diagnostics.
	a.report = true
	a.seen = map[string]bool{}
	for i, blk := range g.Blocks {
		s := copyState(in[i])
		for _, n := range blk.Nodes {
			a.transfer(n, s)
		}
	}
	a.report = false
}

func copyState(s state) state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinState unions src into dst; a value stale on any incoming path is
// stale at the join.
func joinState(dst, src state) bool {
	changed := false
	for k, v := range src {
		old, ok := dst[k]
		if !ok {
			dst[k] = v
			changed = true
		} else if v.stale && !old.stale {
			old.stale = true
			dst[k] = old
			changed = true
		}
	}
	return changed
}

func (a *analysis) reportf(pos token.Pos, format string, args ...interface{}) {
	if !a.report {
		return
	}
	d := lint.Diagnostic{Pos: a.pass.Fset.Position(pos)}
	key := d.Pos.String() + "\x00" + format
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.pass.Reportf(pos, format, args...)
}

func (a *analysis) transfer(n ast.Node, s state) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, s)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.invalidate(r, s)
			a.checkStale(r, s)
			if t := a.taintOf(r, s); t != nil && !a.inScratch {
				a.reportf(r.Pos(),
					"returns arena-backed scratch (from %s); copy it or mark this function //sadplint:scratch", t.src)
			}
		}
	case *ast.SendStmt:
		a.invalidate(n.Value, s)
		a.checkStale(n.Value, s)
		if t := a.taintOf(n.Value, s); t != nil {
			a.reportf(n.Value.Pos(),
				"sends arena-backed scratch (from %s) over a channel; the receiver outlives the owner's next reset", t.src)
		}
	case *ast.GoStmt:
		a.goStmt(n, s)
	case *ast.DeferStmt:
		// Arguments are evaluated here; the call itself is a node of the
		// exit block and is handled there.
		for _, arg := range n.Call.Args {
			a.invalidate(arg, s)
			a.checkStale(arg, s)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				}
				if rhs != nil {
					a.invalidate(rhs, s)
					a.checkStale(rhs, s)
				}
				obj := a.pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				if t := a.taintOf(rhs, s); t != nil && pointerLike(obj.Type()) {
					s[obj] = *t
				} else {
					delete(s, obj)
				}
			}
		}
	case *ast.ExprStmt:
		a.invalidate(n.X, s)
		a.checkStale(n.X, s)
	case ast.Expr:
		// Conditions, switch tags, range operands, exit-block deferred
		// calls.
		a.invalidate(n, s)
		a.checkStale(n, s)
	case *ast.RangeStmt:
		// Header binding: ranging over a tainted slice taints the value
		// variable when it is itself pointer-like.
		if t := a.taintOf(n.X, s); t != nil && n.Value != nil {
			if id, ok := n.Value.(*ast.Ident); ok {
				if obj := a.pass.TypesInfo.Defs[id]; obj != nil && pointerLike(obj.Type()) {
					s[obj] = *t
				}
			}
		}
	default:
		if st, ok := n.(ast.Stmt); ok {
			// IncDec, Post statements, Comm clauses of select, etc.
			ast.Inspect(st, func(nd ast.Node) bool {
				if e, ok := nd.(ast.Expr); ok {
					a.invalidate(e, s)
					a.checkStale(e, s)
					return false
				}
				return true
			})
		}
	}
}

func (a *analysis) assign(n *ast.AssignStmt, s state) {
	for _, rhs := range n.Rhs {
		a.invalidate(rhs, s)
		a.checkStale(rhs, s)
	}
	// Multi-value call on the right: every pointer-like LHS inherits the
	// call's taint.
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		t := a.taintOf(n.Rhs[0], s)
		for _, lhs := range n.Lhs {
			a.assignOne(lhs, t, s)
		}
		return
	}
	for i, lhs := range n.Lhs {
		var t *taint
		if i < len(n.Rhs) {
			t = a.taintOf(n.Rhs[i], s)
		}
		a.assignOne(lhs, t, s)
	}
}

func (a *analysis) assignOne(lhs ast.Expr, t *taint, s state) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := a.pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = a.pass.TypesInfo.Uses[lhs]
		}
		if obj == nil {
			return
		}
		if t != nil && pointerLike(obj.Type()) {
			s[obj] = *t
		} else {
			delete(s, obj)
		}
	case *ast.SelectorExpr, *ast.IndexExpr:
		a.checkStale(lhs, s)
		if t != nil && !a.inScratch {
			a.reportf(lhs.Pos(),
				"stores arena-backed scratch (from %s) into long-lived memory; it is invalid after the owner's next reset", t.src)
		}
	case *ast.StarExpr:
		if t != nil && !a.inScratch {
			a.reportf(lhs.Pos(),
				"stores arena-backed scratch (from %s) through a pointer; it is invalid after the owner's next reset", t.src)
		}
	}
}

// goStmt flags tainted values crossing into a spawned goroutine,
// either as call arguments or as free variables of a func literal.
func (a *analysis) goStmt(n *ast.GoStmt, s state) {
	for _, arg := range n.Call.Args {
		a.checkStale(arg, s)
		if t := a.taintOf(arg, s); t != nil {
			a.reportf(arg.Pos(),
				"passes arena-backed scratch (from %s) to a goroutine; it may outlive the owner's next reset", t.src)
		}
	}
	if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
		var captured []*ast.Ident
		ast.Inspect(lit.Body, func(nd ast.Node) bool {
			if id, ok := nd.(*ast.Ident); ok {
				if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
					if _, tainted := s[obj]; tainted {
						captured = append(captured, id)
					}
				}
			}
			return true
		})
		sort.Slice(captured, func(i, j int) bool { return captured[i].Pos() < captured[j].Pos() })
		for _, id := range captured {
			t := s[a.pass.TypesInfo.Uses[id]]
			a.reportf(id.Pos(),
				"goroutine captures arena-backed scratch %s (from %s); it may outlive the owner's next reset", id.Name, t.src)
			break // one report per go statement is enough
		}
	}
}

// taintOf evaluates whether an expression aliases scratch under the
// current state.
func (a *analysis) taintOf(e ast.Expr, s state) *taint {
	switch e := e.(type) {
	case *ast.Ident:
		obj := a.pass.TypesInfo.Uses[e]
		if obj == nil {
			return nil
		}
		if t, ok := s[obj]; ok {
			return &t
		}
	case *ast.ParenExpr:
		return a.taintOf(e.X, s)
	case *ast.SliceExpr:
		return a.taintOf(e.X, s)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
			if a.pass.TypesInfo.Uses[id] == nil || isBuiltin(a.pass.TypesInfo.Uses[id]) {
				if len(e.Args) > 0 {
					// append aliases its first argument's backing array;
					// appended elements are copied in.
					return a.taintOf(e.Args[0], s)
				}
				return nil
			}
		}
		if key, ok := a.scratchCallee(e); ok {
			return &taint{src: key}
		}
	}
	return nil
}

// scratchCallee reports whether the call's static callee carries the
// scratch fact, returning its object key.
func (a *analysis) scratchCallee(call *ast.CallExpr) (string, bool) {
	obj := calleeOf(a.pass.TypesInfo, call)
	if obj == nil {
		return "", false
	}
	if _, ok := a.pass.FactOf(obj); ok {
		return lint.ObjectKey(obj), true
	}
	return "", false
}

// invalidate walks an expression for calls that kill live scratch: an
// owner Reset/Release staleness-marks everything; a repeat call
// to a scratch function staleness-marks that function's prior results.
// Func literals are separate analysis scopes and are not entered.
func (a *analysis) invalidate(e ast.Expr, s state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeOf(a.pass.TypesInfo, call)
		if obj == nil {
			return true
		}
		if invalidators[obj.Name()] {
			for k, t := range s {
				t.stale = true
				s[k] = t
			}
			return true
		}
		if _, ok := a.pass.FactOf(obj); ok {
			key := lint.ObjectKey(obj)
			for k, t := range s {
				if t.src == key {
					t.stale = true
					s[k] = t
				}
			}
		}
		return true
	})
}

// checkStale reports reads of values whose backing scratch has been
// invalidated. Func literals are separate scopes and skipped.
func (a *analysis) checkStale(e ast.Expr, s state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if t, ok := s[obj]; ok && t.stale {
			a.reportf(id.Pos(),
				"uses %s after its owner's scratch was reset or reused (from %s); copy the value before the reset", id.Name, t.src)
		}
		return true
	})
}

func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}
