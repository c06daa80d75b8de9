// Package hotalloc bans allocation constructs inside functions marked
// //sadplint:hotpath <reason>. The router's search step, the Dial
// bucket queue and the incremental TPL recolor run millions of times
// per benchmark; the arena work (PR 4) got a routing job down to ~47
// allocations, and a single composite literal or closure re-introduced
// into one of these inner loops silently costs that win back. The
// regression tests in bench assert allocation ceilings after the fact;
// this analyzer points at the exact construct before the benchmark
// ever runs.
//
// Flagged inside a hotpath function:
//
//   - composite literals inside a loop that allocate — slice and map
//     literals and &T{...}; plain struct *value* literals are exempt
//     (they live in registers or on the stack);
//   - append inside a loop to a local declared without capacity
//     (fields and make'd locals are assumed preallocated);
//   - closure creation (func literals) anywhere;
//   - interface boxing: a concrete value passed where an interface is
//     expected (builtins like panic are exempt — a panic path is cold
//     by definition);
//   - fmt calls and non-constant string concatenation anywhere;
//   - defer inside a loop (one runtime defer record per iteration).
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/lint"
)

// Analyzer is the hotalloc pass.
var Analyzer = &lint.Analyzer{
	Name: "hotalloc",
	Doc: "forbid allocation constructs (composite literals and growing appends in loops, " +
		"closures, interface boxing, fmt, string concat, defer-in-loop) in //sadplint:hotpath functions",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		dirs := lint.Directives(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := lint.FuncDirective(pass.Fset, dirs, fd, "hotpath"); !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				pass.ExportFact(obj, "hotpath")
			}
			h := &hot{pass: pass, fn: fd.Name.Name}
			h.collectCapacities(fd.Body)
			h.walk(fd.Body, 0)
		}
	}
	return nil
}

type hot struct {
	pass *lint.Pass
	fn   string
	// noCap holds locals declared as growing slices: `var s []T` or
	// `s := []T{}` / `s := T(nil)`, with no make(..., cap) in sight.
	noCap map[types.Object]bool
}

// collectCapacities classifies every slice-typed local by its
// declaration form. A local that is ever assigned a make with
// capacity (or a slice of something else) is considered preallocated.
func (h *hot) collectCapacities(body *ast.BlockStmt) {
	h.noCap = map[types.Object]bool{}
	decide := func(name *ast.Ident, rhs ast.Expr) {
		obj := h.pass.TypesInfo.Defs[name]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		if rhs == nil {
			h.noCap[obj] = true // var s []T
			return
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 3 {
				return // make([]T, n, cap): preallocated
			}
		}
		if cl, ok := rhs.(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
			h.noCap[obj] = true // s := []T{}
			return
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
					decide(id, n.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
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
					decide(name, rhs)
				}
			}
		}
		return true
	})
}

// walk visits statements tracking loop depth.
func (h *hot) walk(n ast.Node, loopDepth int) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		h.walkExprs(loopDepth, n.Cond)
		h.walk(n.Init, loopDepth)
		h.walk(n.Post, loopDepth+1)
		h.walk(n.Body, loopDepth+1)
		return
	case *ast.RangeStmt:
		h.walkExprs(loopDepth, n.X)
		h.walk(n.Body, loopDepth+1)
		return
	case *ast.DeferStmt:
		if loopDepth > 0 {
			h.pass.Reportf(n.Pos(),
				"defer inside a loop in hotpath function %s allocates a defer record per iteration; restructure", h.fn)
		}
		h.walkExprs(loopDepth, n.Call)
		return
	case *ast.BlockStmt:
		for _, s := range n.List {
			h.walk(s, loopDepth)
		}
		return
	case *ast.IfStmt:
		h.walk(n.Init, loopDepth)
		h.walkExprs(loopDepth, n.Cond)
		h.walk(n.Body, loopDepth)
		h.walk(n.Else, loopDepth)
		return
	case *ast.SwitchStmt:
		h.walk(n.Init, loopDepth)
		h.walkExprs(loopDepth, n.Tag)
		h.walk(n.Body, loopDepth)
		return
	case *ast.TypeSwitchStmt:
		h.walk(n.Init, loopDepth)
		h.walk(n.Assign, loopDepth)
		h.walk(n.Body, loopDepth)
		return
	case *ast.CaseClause:
		h.walkExprs(loopDepth, n.List...)
		for _, s := range n.Body {
			h.walk(s, loopDepth)
		}
		return
	case *ast.SelectStmt:
		h.walk(n.Body, loopDepth)
		return
	case *ast.CommClause:
		h.walk(n.Comm, loopDepth)
		for _, s := range n.Body {
			h.walk(s, loopDepth)
		}
		return
	case *ast.LabeledStmt:
		h.walk(n.Stmt, loopDepth)
		return
	case ast.Stmt:
		// Straight-line statements: check the expressions inside.
		ast.Inspect(n, func(nd ast.Node) bool {
			if e, ok := nd.(ast.Expr); ok {
				h.walkExprs(loopDepth, e)
				return false
			}
			return true
		})
		return
	}
}

// walkExprs checks expressions for allocating constructs.
func (h *hot) walkExprs(loopDepth int, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncLit:
				h.pass.Reportf(nd.Pos(),
					"closure allocates in hotpath function %s; hoist the func value out of the hot path", h.fn)
				return false // its body is a different (non-hot) context
			case *ast.UnaryExpr:
				if nd.Op == token.AND {
					if cl, ok := nd.X.(*ast.CompositeLit); ok && loopDepth > 0 {
						h.pass.Reportf(cl.Pos(),
							"&composite literal allocates per iteration in hotpath function %s; reuse one instance", h.fn)
						return false
					}
				}
			case *ast.CompositeLit:
				if loopDepth > 0 && h.heapLiteral(nd) {
					h.pass.Reportf(nd.Pos(),
						"composite literal allocates per iteration in hotpath function %s; hoist or reuse a buffer", h.fn)
				}
			case *ast.BinaryExpr:
				if nd.Op == token.ADD && h.isString(nd) && !h.isConst(nd) {
					h.pass.Reportf(nd.Pos(),
						"string concatenation allocates in hotpath function %s; avoid or move off the hot path", h.fn)
				}
			case *ast.CallExpr:
				h.call(nd, loopDepth)
			}
			return true
		})
	}
}

func (h *hot) call(call *ast.CallExpr, loopDepth int) {
	// append in a loop to a growing local.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && loopDepth > 0 {
		if obj := h.pass.TypesInfo.Uses[id]; obj != nil {
			if _, builtin := obj.(*types.Builtin); builtin && len(call.Args) > 0 {
				if dst, ok := call.Args[0].(*ast.Ident); ok {
					if dobj := h.pass.TypesInfo.Uses[dst]; dobj != nil && h.noCap[dobj] {
						h.pass.Reportf(call.Pos(),
							"append to %s (declared without capacity) grows per iteration in hotpath function %s; preallocate or reuse an owner buffer", dst.Name, h.fn)
					}
				}
			}
		}
		return
	}
	// fmt calls.
	if callee := calleeOf(h.pass.TypesInfo, call); callee != nil && callee.Pkg() != nil &&
		callee.Pkg().Path() == "fmt" {
		h.pass.Reportf(call.Pos(),
			"fmt.%s allocates in hotpath function %s; format off the hot path", callee.Name(), h.fn)
		return
	}
	// Interface boxing at call boundaries. Builtins (panic, print)
	// have no signature and are exempt: a panic path is cold.
	tv, ok := h.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := h.pass.TypesInfo.Types[arg]
		if at.Type == nil || types.IsInterface(at.Type) || at.IsNil() || at.Value != nil {
			continue
		}
		if basic, ok := at.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsUntyped != 0 {
			continue
		}
		h.pass.Reportf(arg.Pos(),
			"argument boxes a concrete value into an interface in hotpath function %s; avoid the conversion on the hot path", h.fn)
	}
}

// paramType resolves the parameter type matching argument i,
// unwrapping the variadic tail when the call has no `...`.
func paramType(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if !sig.Variadic() {
		if i < n {
			return sig.Params().At(i).Type()
		}
		return nil
	}
	if i < n-1 {
		return sig.Params().At(i).Type()
	}
	last := sig.Params().At(n - 1).Type()
	if hasEllipsis {
		return last // s... passes the slice as-is
	}
	if st, ok := last.(*types.Slice); ok {
		return st.Elem()
	}
	return nil
}

// heapLiteral reports whether a composite literal allocates: slice and
// map literals do; plain struct (and array) values do not.
func (h *hot) heapLiteral(cl *ast.CompositeLit) bool {
	tv, ok := h.pass.TypesInfo.Types[cl]
	if !ok || tv.Type == nil {
		return true // unknown: be conservative
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func (h *hot) isString(e ast.Expr) bool {
	tv, ok := h.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func (h *hot) isConst(e ast.Expr) bool {
	tv, ok := h.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
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
