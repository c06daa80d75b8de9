// Package lint is a minimal, dependency-free analysis framework in
// the shape of golang.org/x/tools/go/analysis, built on the standard
// library only (the container image carries no module cache, so the
// real x/tools cannot be vendored). It provides the Analyzer/Pass
// contract, the //sadplint:ignore suppression grammar shared by every
// analyzer, and drivers for both standalone use and the `go vet
// -vettool` protocol (see unit.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sadplint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant protected and
	// why the stock tooling cannot see it.
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts carries cross-package analyzer facts: dependencies'
	// exports are readable (FactOf), this package's are written
	// through ExportFact. See facts.go.
	Facts *FactStore

	diags *[]Diagnostic
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// DeterministicPackages lists the import paths whose routing results
// must be bit-identical run to run (the PR 1 and PR 3 guarantees):
// detmap and detclock apply only inside them. Any package path
// containing "detfixture" is also treated as deterministic so
// analyzer test fixtures exercise the same code path without mutating
// this list.
var DeterministicPackages = []string{
	"repro/internal/router",
	"repro/internal/dvi",
	"repro/internal/ilp",
	"repro/internal/tpl",
	"repro/internal/coloring",
	"repro/internal/decompose",
	"repro/internal/verify",
	"repro/internal/bench",
}

// IsDeterministic reports whether the package path is subject to the
// determinism analyzers. Test-variant paths ("p [p.test]", "p_test")
// normalize to their base package.
func IsDeterministic(path string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	if strings.Contains(path, "detfixture") {
		return true
	}
	for _, p := range DeterministicPackages {
		if path == p {
			return true
		}
	}
	return false
}

// NonTestFiles returns the pass's files excluding _test.go sources:
// the determinism and lock invariants target production code, and the
// test variants `go vet` compiles would otherwise re-report every
// production-file diagnostic.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// A Directive is one parsed //sadplint:VERB comment.
type Directive struct {
	Line   int    // line the comment appears on
	Verb   string // "ignore" or "ordered"
	Name   string // analyzer name (ignore only)
	Reason string // justification text; required
	Pos    token.Pos
}

// Directives parses every //sadplint: comment of the file. The
// grammar is:
//
//	//sadplint:ignore <analyzer> <reason...>   suppress that analyzer
//	//sadplint:ordered <reason...>             assert a map range is
//	                                           deliberately unordered
//	//sadplint:scratch <reason...>             the function's returned
//	                                           slices/pointers alias
//	                                           owner-recycled scratch,
//	                                           valid only until the
//	                                           owner's next use/Reset
//	//sadplint:hotpath <reason...>             the function is on a
//	                                           measured hot path; the
//	                                           hotalloc analyzer bans
//	                                           allocation constructs
//	                                           inside it
//
// A suppression directive applies to its own source line, or — when
// the comment stands alone — to the next line. scratch and hotpath
// attach to the function declaration they precede (anywhere in its
// doc comment). All reasons are mandatory.
func Directives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//sadplint:")
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			d := Directive{
				Line: fset.Position(c.Pos()).Line,
				Verb: fields[0],
				Pos:  c.Pos(),
			}
			switch d.Verb {
			case "ignore":
				if len(fields) > 1 {
					d.Name = fields[1]
				}
				d.Reason = strings.Join(fields[2:], " ")
			case "ordered", "scratch", "hotpath":
				d.Reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// OrderedAt reports whether line carries (or is preceded by) a
// //sadplint:ordered directive with a reason, for analyzers that
// accept an explicit ordering justification.
func OrderedAt(dirs []Directive, line int) bool {
	for _, d := range dirs {
		if d.Verb == "ordered" && d.Reason != "" && (d.Line == line || d.Line == line-1) {
			return true
		}
	}
	return false
}

// FuncDirective returns the directive of the given verb attached to a
// function declaration: a //sadplint:<verb> line inside the func's doc
// comment or on the line immediately above the declaration. The bool
// reports presence even when the mandatory reason is missing (callers
// report that separately).
func FuncDirective(fset *token.FileSet, dirs []Directive, fd *ast.FuncDecl, verb string) (Directive, bool) {
	funcLine := fset.Position(fd.Pos()).Line
	lo := funcLine - 1
	if fd.Doc != nil {
		lo = fset.Position(fd.Doc.Pos()).Line
	}
	for _, d := range dirs {
		if d.Verb == verb && d.Line >= lo && d.Line <= funcLine {
			return d, true
		}
	}
	return Directive{}, false
}

// RunAnalyzers type-checks nothing itself: pkgs must already carry
// syntax and types. It runs every analyzer over every package —
// dependencies first, so cross-package facts are available — applies
// //sadplint:ignore suppressions, reports malformed directives (a
// suppression or scratch/hotpath marker without a reason is itself a
// violation — the suite's "zero unexplained suppressions" rule), and
// returns the surviving diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAnalyzersFacts(pkgs, analyzers, NewFactStore())
}

// RunAnalyzersFacts is RunAnalyzers with a caller-supplied fact
// store, pre-seeded with dependency facts (unit mode) or inspected
// afterwards (tests).
func RunAnalyzersFacts(pkgs []*Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range sortByDeps(pkgs) {
		// Parse the suppression directives once per file.
		byFile := make(map[string][]Directive)
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			dirs := Directives(pkg.Fset, f)
			byFile[name] = dirs
			for _, d := range dirs {
				switch {
				case d.Verb == "ignore" && (d.Name == "" || d.Reason == ""):
					all = append(all, Diagnostic{
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  "malformed //sadplint:ignore: want \"//sadplint:ignore <analyzer> <reason>\"",
						Analyzer: "sadplint",
					})
				case (d.Verb == "scratch" || d.Verb == "hotpath") && d.Reason == "":
					all = append(all, Diagnostic{
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  fmt.Sprintf("malformed //sadplint:%s: want \"//sadplint:%s <reason>\"", d.Verb, d.Verb),
						Analyzer: "sadplint",
					})
				}
			}
		}
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
			}
			for _, d := range diags {
				if !suppressed(byFile[d.Pos.Filename], a.Name, d.Pos.Line) {
					all = append(all, d)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// suppressed reports whether an //sadplint:ignore for analyzer name
// covers the diagnostic line. A reason is mandatory: directives
// without one do not suppress (and are reported as malformed).
func suppressed(dirs []Directive, name string, line int) bool {
	for _, d := range dirs {
		if d.Verb == "ignore" && d.Name == name && d.Reason != "" &&
			(d.Line == line || d.Line == line-1) {
			return true
		}
	}
	return false
}
