package lint

// Cross-package facts. An analyzer running over package P can attach
// small string facts to P's objects (functions, fields); analyzers
// running later over a package that imports P read them back.
// RunAnalyzers processes the loaded packages in dependency order
// (imports first), so facts flow through one in-memory store.
//
// Facts are strings on purpose: they stay trivially diffable, and
// every current fact ("scratch", "hotpath", an acquired-mutex list, a
// lock-order edge list) fits.

import (
	"fmt"
	"go/types"
	"sort"
)

// FactStore holds analyzer → object key → fact value.
type FactStore struct {
	m map[string]map[string]string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[string]map[string]string{}}
}

// Set records a fact.
func (fs *FactStore) Set(analyzer, key, value string) {
	a := fs.m[analyzer]
	if a == nil {
		a = map[string]string{}
		fs.m[analyzer] = a
	}
	a[key] = value
}

// Get looks a fact up.
func (fs *FactStore) Get(analyzer, key string) (string, bool) {
	v, ok := fs.m[analyzer][key]
	return v, ok
}

// Keys returns the sorted fact keys of one analyzer.
func (fs *FactStore) Keys(analyzer string) []string {
	a := fs.m[analyzer]
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ObjectKey names an object stably across packages: package path,
// receiver type for methods, then the object name.
func ObjectKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name := recvTypeName(sig.Recv().Type()); name != "" {
				return fmt.Sprintf("%s.%s.%s", pkg, name, obj.Name())
			}
		}
	}
	return fmt.Sprintf("%s.%s", pkg, obj.Name())
}

// recvTypeName unwraps pointers and names the receiver's base type.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ExportFact records a fact about obj under the running analyzer's
// name. Facts survive into every downstream package of the same run.
func (p *Pass) ExportFact(obj types.Object, value string) {
	if p.Facts == nil || obj == nil {
		return
	}
	p.Facts.Set(p.Analyzer.Name, ObjectKey(obj), value)
}

// FactOf reads the running analyzer's fact about obj.
func (p *Pass) FactOf(obj types.Object) (string, bool) {
	if p.Facts == nil || obj == nil {
		return "", false
	}
	return p.Facts.Get(p.Analyzer.Name, ObjectKey(obj))
}

// sortByDeps orders packages so every package comes after the loaded
// packages it imports — the order facts need. Cycles cannot occur in
// valid Go; ties and unloaded imports keep the incoming (sorted)
// order.
func sortByDeps(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	sorted := make([]*Package, 0, len(pkgs))
	state := make(map[*Package]int, len(pkgs)) // 0 new, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep, ok := byPath[imp.Path()]; ok && state[dep] == 0 {
					visit(dep)
				}
			}
		}
		state[p] = 2
		sorted = append(sorted, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return sorted
}
