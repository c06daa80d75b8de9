package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// A Package bundles one loaded, type-checked package for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	// DepOnly marks a package listed only as a dependency of the
	// patterns, not matched by them.
	DepOnly bool
	Error   *struct{ Err string }
}

// goList streams `go list -json` objects for the given arguments,
// run from dir.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decode: %v", args, err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ExportImporter builds a types.Importer that resolves imports from
// compiler export data files: packageFile maps package path → export
// data file.
func ExportImporter(fset *token.FileSet, packageFile map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// LoadExportMap runs `go list -export -deps` over patterns from dir
// and returns package path → export data file for every importable
// package in the closure.
func LoadExportMap(dir string, patterns ...string) (map[string]string, error) {
	pkgs, err := goList(dir, append([]string{"-export", "-deps", "-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	return exportMap(pkgs), nil
}

// exportMap maps package path → export data file for every listed
// package that has export data.
func exportMap(pkgs []*listedPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// Load loads, parses and type-checks the packages matching patterns
// (relative to dir), in import-path order, dependencies resolved
// through compiler export data. One `go list -export -deps` call
// yields both the matched packages (not DepOnly) and the export data
// of their closure. Test files are not loaded: sadplint's invariants
// target production code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exportMap(listed))
	var out []*Package
	for _, root := range listed {
		if root.DepOnly {
			continue
		}
		if root.Error != nil {
			return nil, fmt.Errorf("%s: %s", root.ImportPath, root.Error.Err)
		}
		var files []*ast.File
		for _, name := range root.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(root.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		pkg, info, err := Check(root.ImportPath, fset, files, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", root.ImportPath, err)
		}
		out = append(out, &Package{PkgPath: root.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info})
	}
	// -deps lists dependencies first. Sort to the order a plain listing
	// of the patterns gives: facts still flow imports-first
	// (sortByDeps), and an order-dependent finding, such as the package
	// a lock-order cycle is reported in, stays where it was.
	slices.SortFunc(out, func(a, b *Package) int { return strings.Compare(a.PkgPath, b.PkgPath) })
	return out, nil
}

// Check type-checks one package's parsed files with full type
// information recorded.
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
