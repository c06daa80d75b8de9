// Package detclock bans wall-clock reads and ambient randomness from
// the deterministic packages. Bit-identical routing metrics (PR 1)
// and exact golden-file compares (PR 3) only hold while every
// tie-break and every cost comes from inputs and Config.Seed;
// time.Now / time.Since and the global math/rand state are invisible
// inputs that -race and staticcheck both accept without complaint.
//
// Seeded *rand.Rand values threaded from a config (rand.New with
// rand.NewSource(seed), the pattern internal/router and
// internal/bench already use) remain allowed: only the package-level
// math/rand functions, which draw from the shared global source, are
// flagged.
package detclock

import (
	"go/ast"
	"go/types"

	"repro/internal/analyzers/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "detclock",
	Doc:  "flags time.Now/time.Since and global math/rand use in deterministic packages",
	Run:  run,
}

// bannedTime are the wall-clock reads: anything deriving a value from
// the machine's clock inside a solver path makes output timing-
// dependent.
var bannedTime = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// allowedRand are the math/rand constructors for explicitly seeded
// generators; every other package-level function of math/rand (Intn,
// Perm, Shuffle, Seed, ...) uses the process-global source.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *lint.Pass) error {
	if !lint.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(sel.Pos(), "time.%s in deterministic package %s: wall-clock input breaks run-to-run reproducibility (thread timing through explicit budgets or measure outside the solver)", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					pass.Reportf(sel.Pos(), "global rand.%s in deterministic package %s: draws from the shared unseeded source (use a *rand.Rand seeded from Config.Seed)", fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
