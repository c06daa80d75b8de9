// Package cancelpoll enforces the cooperative-cancellation contract:
// an exported function that accepts a cancellation capability — a
// context.Context, a cancel channel, or a config struct carrying a
// Cancel channel (router.Config's shape) — must actually consult it
// inside every statically unbounded loop. The service's graceful
// drain and per-job timeouts (PR 2/PR 4) rely on workers reaching a
// poll point; a loop that ignores the capability it was handed turns
// Shutdown into a hang that no race detector or vet check reports.
//
// "Statically unbounded" means `for {}` and condition-only
// `for cond {}` loops: range loops and three-clause counted loops
// have an iteration bound visible in the syntax. "Consults" is
// deliberately loose — any reference to the capability parameter
// inside the loop (polling the channel, calling ctx.Err, or passing
// the config to a callee that polls) satisfies the check; the point
// is to catch loops with no escape hatch at all.
package cancelpoll

import (
	"go/ast"
	"go/types"

	"repro/internal/analyzers/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "cancelpoll",
	Doc:  "exported functions with a Cancel/context capability must reference it in unbounded loops",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			caps := cancelParams(pass, fd)
			if len(caps) == 0 {
				continue
			}
			checkLoops(pass, fd, caps)
		}
	}
	return nil
}

// cancelParams returns the parameter objects of fd that carry a
// cancellation capability.
func cancelParams(pass *lint.Pass, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if isCancelCapable(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// isCancelCapable matches context.Context, channel-of-struct{}
// parameters, and structs (by value or pointer) with a channel field
// named Cancel.
func isCancelCapable(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		return isCancelCapable(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Name() != "Cancel" {
				continue
			}
			if _, ok := f.Type().Underlying().(*types.Chan); ok {
				return true
			}
		}
	}
	return false
}

func checkLoops(pass *lint.Pass, fd *ast.FuncDecl, caps []*types.Var) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		// Bounded: three-clause counted loops carry their bound in the
		// syntax. (Range loops are a different node type entirely.)
		if loop.Cond != nil && (loop.Init != nil || loop.Post != nil) {
			return true
		}
		if referencesAny(pass, loop, caps) {
			return true
		}
		pass.Reportf(loop.Pos(), "unbounded loop in exported %s never consults its cancellation capability (%s): poll the cancel channel/ctx so shutdown and timeouts can reach this loop", fd.Name.Name, capNames(caps))
		return true
	})
}

func referencesAny(pass *lint.Pass, n ast.Node, caps []*types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj := pass.TypesInfo.Uses[id]
		for _, c := range caps {
			if obj == c {
				found = true
			}
		}
		return !found
	})
	return found
}

func capNames(caps []*types.Var) string {
	s := ""
	for i, c := range caps {
		if i > 0 {
			s += ", "
		}
		s += c.Name()
	}
	return s
}
