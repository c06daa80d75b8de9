// Package detmap flags map-iteration-order dependence inside the
// deterministic packages. Go randomizes map range order per run by
// design, so a `for k := range m` whose body feeds an
// order-sensitive sink (a result slice, a heap, the first-wins pick
// of a tie) silently breaks the bit-identical-output guarantee; the
// race detector never fires because nothing races, and staticcheck
// considers the code idiomatic.
//
// A range over a map is accepted when the loop body is a provably
// order-insensitive fold (counters, numeric/bitwise accumulation,
// map-to-map transfer, delete, min/max selection), or when it carries
// an explicit //sadplint:ordered <reason> justification. Multi-case
// selects (runtime-random case pick when several are ready), unsorted
// maps.Keys/maps.Values consumption and sync.Map.Range (iteration
// order unspecified) are flagged on the same grounds.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "detmap",
	Doc:  "flags map-order-dependent iteration, multi-ready selects and unsorted maps.Keys/sync.Map.Range in deterministic packages",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if !lint.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		dirs := lint.Directives(pass.Fset, f)
		sorted := collectThenSort(pass, f)
		wrapped := sortWrappedCalls(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if !sorted[n] {
					checkRange(pass, dirs, n)
				}
			case *ast.SelectStmt:
				checkSelect(pass, dirs, n)
			case *ast.CallExpr:
				if !wrapped[n] {
					checkCall(pass, dirs, n)
				}
			}
			return true
		})
	}
	return nil
}

func ordered(pass *lint.Pass, dirs []lint.Directive, pos token.Pos) bool {
	return lint.OrderedAt(dirs, pass.Fset.Position(pos).Line)
}

func checkRange(pass *lint.Pass, dirs []lint.Directive, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if ordered(pass, dirs, rng.Pos()) {
		return
	}
	if orderInsensitiveBody(pass, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "range over map in deterministic package %s feeds an order-sensitive sink: iterate sorted keys, or justify with //sadplint:ordered <reason>", pass.Pkg.Path())
}

func checkSelect(pass *lint.Pass, dirs []lint.Directive, sel *ast.SelectStmt) {
	comms := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms < 2 {
		return // single-case (+ optional default) polls are deterministic
	}
	if ordered(pass, dirs, sel.Pos()) {
		return
	}
	pass.Reportf(sel.Pos(), "select with %d comm cases in deterministic package %s: the runtime picks uniformly among ready cases; restructure or justify with //sadplint:ordered <reason>", comms, pass.Pkg.Path())
}

// checkCall flags maps.Keys/maps.Values not immediately sorted, and
// any (*sync.Map).Range call.
func checkCall(pass *lint.Pass, dirs []lint.Directive, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Path() == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values"):
		if ordered(pass, dirs, call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(), "maps.%s in deterministic package %s yields keys in randomized order: wrap in slices.Sorted, or justify with //sadplint:ordered <reason>", fn.Name(), pass.Pkg.Path())
	case fn.Pkg().Path() == "sync" && fn.Name() == "Range":
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named, ok := deref(recv.Type()).(*types.Named); ok && named.Obj().Name() == "Map" {
				if ordered(pass, dirs, call.Pos()) {
					return
				}
				pass.Reportf(call.Pos(), "sync.Map.Range in deterministic package %s iterates in unspecified order (and sync.Map itself has no place in a single-writer solver path)", pass.Pkg.Path())
			}
		}
	}
}

// sortWrappedCalls marks call arguments passed directly into a
// sorting call — slices.Sorted(maps.Keys(m)) is the idiom the detmap
// diagnostic itself recommends, so the inner maps.Keys must not be
// re-flagged.
func sortWrappedCalls(pass *lint.Pass, f *ast.File) map[*ast.CallExpr]bool {
	wrapped := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if inner, ok := arg.(*ast.CallExpr); ok {
				wrapped[inner] = true
			}
		}
		return true
	})
	return wrapped
}

// isSortCall recognizes calls that impose an order on their
// arguments: anything in package sort, the Sort*-named functions of
// package slices (slices.Collect and friends do not sort), and
// helpers whose own name starts with sort/Sort.
func isSortCall(pass *lint.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == "sort" {
				return true
			}
		}
		return hasSortName(fun.Sel.Name)
	case *ast.Ident:
		return hasSortName(fun.Name)
	}
	return false
}

// collectThenSort recognizes the canonical deterministic-iteration
// idiom: a range over a map that only appends to a slice variable
// which a later statement of the same block sorts (sort.*/slices.*
// or a sort-named helper). The collection order is laundered by the
// sort, so the loop is order-insensitive.
func collectThenSort(pass *lint.Pass, f *ast.File) map[*ast.RangeStmt]bool {
	ok := make(map[*ast.RangeStmt]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		block, isBlock := n.(*ast.BlockStmt)
		if !isBlock {
			return true
		}
		for i, s := range block.List {
			rng, isRange := s.(*ast.RangeStmt)
			if !isRange {
				continue
			}
			target := appendOnlyTarget(pass, rng)
			if target == nil {
				continue
			}
			for _, later := range block.List[i+1:] {
				if sortsVar(pass, later, target) {
					ok[rng] = true
					break
				}
			}
		}
		return true
	})
	return ok
}

// appendOnlyTarget returns the variable object when every statement
// of the range body is `x = append(x, ...)` (optionally if-wrapped,
// plus continue) on one and the same slice variable.
func appendOnlyTarget(pass *lint.Pass, rng *ast.RangeStmt) types.Object {
	var target types.Object
	valid := true
	var check func(list []ast.Stmt)
	check = func(list []ast.Stmt) {
		for _, s := range list {
			if !valid {
				return
			}
			switch s := s.(type) {
			case *ast.AssignStmt:
				obj := appendAssignTarget(pass, s)
				if obj == nil || (target != nil && obj != target) {
					valid = false
					return
				}
				target = obj
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					valid = false
				}
			case *ast.IfStmt:
				if s.Init != nil {
					valid = false
					return
				}
				check(s.Body.List)
				if b, isBlock := s.Else.(*ast.BlockStmt); isBlock {
					check(b.List)
				} else if s.Else != nil {
					valid = false
				}
			default:
				valid = false
			}
		}
	}
	check(rng.Body.List)
	if !valid {
		return nil
	}
	return target
}

// appendAssignTarget matches `x = append(x, ...)` and returns x's
// object.
func appendAssignTarget(pass *lint.Pass, s *ast.AssignStmt) types.Object {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	obj := pass.TypesInfo.Uses[first]
	if obj == nil {
		return nil
	}
	return obj
}

// sortsVar reports whether the statement contains a sorting call
// (see isSortCall) with the variable among its arguments.
func sortsVar(pass *lint.Pass, s ast.Stmt, target types.Object) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == target {
				found = true
			}
		}
		return !found
	})
	return found
}

func hasSortName(name string) bool {
	lower := name
	if len(lower) > 0 && lower[0] >= 'A' && lower[0] <= 'Z' {
		lower = string(lower[0]+'a'-'A') + lower[1:]
	}
	return len(lower) >= 4 && lower[:4] == "sort"
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// orderInsensitiveBody reports whether every statement of the range
// body is a commutative fold, i.e. produces the same result under any
// key permutation. Accepted statement forms:
//
//   - x++ / x--
//   - x op= e for numeric/bitwise op (string += concatenation is
//     order-sensitive and rejected)
//   - m[e] = e2 (map writes: distinct keys land in distinct slots)
//   - delete(m, k)
//   - continue
//   - if cond { ... } / else blocks of accepted forms, plus the
//     min/max idiom `if x < e { x = e }` (assignment guarded by a
//     comparison on the same variable)
//
// Anything else — append, sends, calls, returns, breaks — makes the
// outcome depend on visit order and rejects the loop.
func orderInsensitiveBody(pass *lint.Pass, rng *ast.RangeStmt) bool {
	ok := true
	var checkStmts func(list []ast.Stmt)
	var checkStmt func(s ast.Stmt)
	checkStmt = func(s ast.Stmt) {
		if !ok {
			return
		}
		switch s := s.(type) {
		case *ast.IncDecStmt:
			// counters commute
		case *ast.AssignStmt:
			if !commutativeAssign(pass, s) {
				ok = false
			}
		case *ast.ExprStmt:
			if !deleteCall(pass, s.X) {
				ok = false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				ok = false // break/goto re-introduce order dependence
			}
		case *ast.IfStmt:
			if s.Init != nil {
				ok = false
				return
			}
			if minMaxIdiom(s) {
				return
			}
			checkStmts(s.Body.List)
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				checkStmts(e.List)
			case *ast.IfStmt:
				checkStmt(e)
			default:
				ok = false
			}
		case *ast.BlockStmt:
			checkStmts(s.List)
		default:
			ok = false
		}
	}
	checkStmts = func(list []ast.Stmt) {
		for _, s := range list {
			checkStmt(s)
		}
	}
	checkStmts(rng.Body.List)
	return ok
}

// commutativeAssign accepts numeric/bitwise compound assignment and
// plain writes into map slots.
func commutativeAssign(pass *lint.Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		if len(s.Lhs) != 1 {
			return false
		}
		t, ok := pass.TypesInfo.Types[s.Lhs[0]]
		if !ok {
			return false
		}
		b, ok := t.Type.Underlying().(*types.Basic)
		return ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0
	case token.ASSIGN, token.DEFINE:
		for _, l := range s.Lhs {
			ix, ok := l.(*ast.IndexExpr)
			if !ok {
				return false
			}
			t, ok := pass.TypesInfo.Types[ix.X]
			if !ok {
				return false
			}
			if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
				return false
			}
		}
		return true
	}
	return false
}

func deleteCall(pass *lint.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "delete"
}

// minMaxIdiom recognizes `if x < e { x = e }` (any comparison
// operator): a running extremum is permutation-invariant as long as
// ties cannot flip the winner, which a comparison on the assigned
// variable itself guarantees for total orders.
func minMaxIdiom(s *ast.IfStmt) bool {
	cmp, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	if len(s.Body.List) != 1 || s.Else != nil {
		return false
	}
	asg, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 {
		return false
	}
	l, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		if id, ok := side.(*ast.Ident); ok && id.Name == l.Name {
			return true
		}
	}
	return false
}
