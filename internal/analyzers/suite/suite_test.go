package suite_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers/arenaesc"
	"repro/internal/analyzers/detmap"
	"repro/internal/analyzers/lint"
	"repro/internal/analyzers/lockorder"
	"repro/internal/analyzers/suite"
)

const repoRoot = "../../.."

// TestRepoIsClean runs the full suite over every package of the
// module. Any new violation — an unsorted map range in a solver
// package, a wall-clock read, an unguarded field access, a loop with
// no cancellation poll — fails plain `go test ./...`, with no CI
// wiring needed.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := lint.Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, suite.Analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestCoordinatorMuIsOutermost pins the lock graph DESIGN §13 promises:
// lockorder, run alone over the module, records the edge
// Coordinator.mu → Server.mu (the coordinator reaches the service while
// holding its own lock, released by a deferred Unlock) and no service
// mutex ever orders before Coordinator.mu.
func TestCoordinatorMuIsOutermost(t *testing.T) {
	pkgs, err := lint.Load(repoRoot, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	facts := lint.NewFactStore()
	if _, err := lint.RunAnalyzersFacts(pkgs, []*lint.Analyzer{lockorder.Analyzer}, facts); err != nil {
		t.Fatalf("running lockorder: %v", err)
	}
	const coord = "repro/internal/cluster.Coordinator.mu"
	if _, ok := facts.Get("lockorder", "edge:"+coord+"->repro/internal/service.Server.mu"); !ok {
		t.Errorf("no edge %s -> service.Server.mu; edges: %v", coord, facts.Keys("lockorder"))
	}
	for _, k := range facts.Keys("lockorder") {
		if strings.HasPrefix(k, "edge:repro/internal/service.") && strings.HasSuffix(k, "->"+coord) {
			t.Errorf("service mutex ordered before the coordinator's: %s", k)
		}
	}
}

// TestInjectedMapRangeIsCaught re-type-checks internal/tpl with an
// extra source file containing an order-sensitive map range: detmap
// must flag it. This is the acceptance drill for the whole pipeline —
// if this test passes, committing such code to internal/tpl fails
// TestRepoIsClean the same way.
func TestInjectedMapRangeIsCaught(t *testing.T) {
	src := `package tpl

func InjectedKeys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	diags := analyzeWithInjection(t, "internal/tpl", "repro/internal/tpl", src, detmap.Analyzer)
	requireDiagnostic(t, diags, "zz_injected.go", "range over map in deterministic package")
}

// TestInjectedUnguardedWriteIsCaught does the same drill for
// lockorder's access check: a jobStore method touching the guarded map
// without the mutex must be flagged.
func TestInjectedUnguardedWriteIsCaught(t *testing.T) {
	src := `package service

func (s *jobStore) injectedDrop(id string) {
	delete(s.jobs, id)
}
`
	diags := analyzeWithInjection(t, "internal/service", "repro/internal/service", src, lockorder.Analyzer)
	requireDiagnostic(t, diags, "zz_injected.go", "guarded by s.mu but accessed without holding it")
}

// TestInjectedLockOrderInversionIsCaught injects into internal/cluster
// an auxiliary mutex acquired before Coordinator.mu in one function and
// after it in another: lockorder must report the cycle. Committing such
// an inversion to the cluster package fails TestRepoIsClean identically.
func TestInjectedLockOrderInversionIsCaught(t *testing.T) {
	src := `package cluster

import "sync"

type zzAux struct {
	mu sync.Mutex
	n  int
}

var zzA zzAux

func (c *Coordinator) zzCoordThenAux() {
	c.mu.Lock()
	zzA.mu.Lock()
	zzA.n++
	zzA.mu.Unlock()
	c.mu.Unlock()
}

func (c *Coordinator) zzAuxThenCoord() {
	zzA.mu.Lock()
	c.mu.Lock()
	c.leaseSeq++
	c.mu.Unlock()
	zzA.mu.Unlock()
}
`
	diags := analyzeWithInjectionFacts(t, "internal/cluster", "repro/internal/cluster", src, lockorder.Analyzer, lint.NewFactStore())
	requireDiagnostic(t, diags, "zz_injected.go", "lock-order cycle")
}

// TestInjectedArenaEscapeIsCaught seeds the cross-package scratch fact
// for router.Routes (as the router package's own run would export it)
// and injects a service function that parks the arena-backed slice in a
// long-lived map: arenaesc must flag the store.
func TestInjectedArenaEscapeIsCaught(t *testing.T) {
	src := `package service

import "repro/internal/router"

var zzLeaked = map[string]interface{}{}

func zzInjectedLeak(rt *router.Router) {
	rs := rt.Routes()
	zzLeaked["routes"] = rs
}
`
	store := lint.NewFactStore()
	store.Set("arenaesc", "repro/internal/router.Router.Routes", "scratch")
	diags := analyzeWithInjectionFacts(t, "internal/service", "repro/internal/service", src, arenaesc.Analyzer, store)
	requireDiagnostic(t, diags, "zz_injected.go", "stores arena-backed scratch")
}

// analyzeWithInjection parses the production sources of relDir plus
// one synthetic file, type-checks the result under the package's real
// import path, and runs a single analyzer over it.
func analyzeWithInjection(t *testing.T, relDir, pkgPath, src string, a *lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	return analyzeWithInjectionFacts(t, relDir, pkgPath, src, a, lint.NewFactStore())
}

// analyzeWithInjectionFacts is analyzeWithInjection with a caller-owned
// fact store, so drills can pre-seed cross-package facts (e.g. the
// scratch marker another package's run would have exported).
func analyzeWithInjectionFacts(t *testing.T, relDir, pkgPath, src string, a *lint.Analyzer, facts *lint.FactStore) []lint.Diagnostic {
	t.Helper()
	dir := filepath.Join(repoRoot, relDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	inj, err := parser.ParseFile(fset, filepath.Join(dir, "zz_injected.go"), src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing injected source: %v", err)
	}
	files = append(files, inj)
	exports, err := lint.LoadExportMap(repoRoot, pkgPath)
	if err != nil {
		t.Fatalf("export data for %s: %v", pkgPath, err)
	}
	tpkg, info, err := lint.Check(pkgPath, fset, files, lint.ExportImporter(fset, exports))
	if err != nil {
		t.Fatalf("type-checking %s with injection: %v", pkgPath, err)
	}
	pkg := &lint.Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags, err := lint.RunAnalyzersFacts([]*lint.Package{pkg}, []*lint.Analyzer{a}, facts)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags
}

func requireDiagnostic(t *testing.T, diags []lint.Diagnostic, file, fragment string) {
	t.Helper()
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, file) && strings.Contains(d.Message, fragment) {
			return
		}
	}
	t.Fatalf("no diagnostic in %s matching %q; got %v", file, fragment, diags)
}
