package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestDirectiveGrammar(t *testing.T) {
	fset, f := parseOne(t, `package p

//sadplint:ignore detmap the consumer sorts downstream
var A int

//sadplint:ordered result is a set
var B int

//sadplint:ignore detclock
var C int
`)
	dirs := Directives(fset, f)
	if len(dirs) != 3 {
		t.Fatalf("got %d directives, want 3: %+v", len(dirs), dirs)
	}
	if d := dirs[0]; d.Verb != "ignore" || d.Name != "detmap" || d.Reason != "the consumer sorts downstream" {
		t.Errorf("ignore directive parsed as %+v", d)
	}
	if d := dirs[1]; d.Verb != "ordered" || d.Reason != "result is a set" {
		t.Errorf("ordered directive parsed as %+v", d)
	}
	if d := dirs[2]; d.Reason != "" {
		t.Errorf("reasonless ignore parsed as %+v", d)
	}
}

func TestSuppressionRequiresReason(t *testing.T) {
	fset, f := parseOne(t, `package p

//sadplint:ignore detmap justified because the sink is a counter
var A int

//sadplint:ignore detmap
var B int
`)
	dirs := Directives(fset, f)
	aLine := fset.Position(f.Scope.Lookup("A").Decl.(*ast.ValueSpec).Pos()).Line
	bLine := fset.Position(f.Scope.Lookup("B").Decl.(*ast.ValueSpec).Pos()).Line
	if !suppressed(dirs, "detmap", aLine) {
		t.Errorf("reasoned directive did not suppress line %d", aLine)
	}
	if suppressed(dirs, "detmap", bLine) {
		t.Errorf("reasonless directive suppressed line %d", bLine)
	}
	if suppressed(dirs, "detclock", aLine) {
		t.Errorf("directive for detmap suppressed detclock")
	}
}

func TestMalformedIgnoreIsReported(t *testing.T) {
	fset, f := parseOne(t, `package p

//sadplint:ignore detmap
var A int
`)
	tpkg, info, err := Check("example.org/p", fset, []*ast.File{f}, ExportImporter(fset, nil))
	if err != nil {
		t.Fatal(err)
	}
	noop := &Analyzer{Name: "noop", Doc: "does nothing", Run: func(*Pass) error { return nil }}
	diags, err := RunAnalyzers([]*Package{{
		PkgPath: "example.org/p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info,
	}}, []*Analyzer{noop})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "sadplint" {
		t.Fatalf("want exactly one sadplint diagnostic for the malformed ignore, got %v", diags)
	}
}

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/router", true},
		{"repro/internal/service", false},
		{"example.org/detfixture", true},
		{"repro/internal/analyzers/lint", false},
	}
	for _, c := range cases {
		if got := IsDeterministic(c.path); got != c.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestOrderedAt(t *testing.T) {
	fset, f := parseOne(t, `package p

//sadplint:ordered set semantics
var A int
var B int

//sadplint:ordered
var C int
`)
	dirs := Directives(fset, f)
	if !OrderedAt(dirs, 4) {
		t.Error("line after a reasoned ordered directive not covered")
	}
	if OrderedAt(dirs, 5) {
		t.Error("ordered directive leaked past the next line")
	}
	if OrderedAt(dirs, 8) {
		t.Error("reasonless ordered directive should not justify anything")
	}
}
