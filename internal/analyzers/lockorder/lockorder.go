// Package lockorder owns the `// guarded by <mu>` field annotations and
// checks three locking invariants with one forward dataflow pass over
// each function's CFG:
//
//  1. Guarded access. Every read or write of an annotated field must
//     sit where the named sibling mutex of the same base expression
//     (`s.mu` for `s.items`) is held on every path, and a write needs
//     the write lock. `Lock`/`TryLock` take the write lock,
//     `RLock`/`TryRLock` the read lock, `Unlock`/`RUnlock` drop it;
//     where paths disagree on the kind, only the read lock is certain.
//     Methods whose name ends in "Locked" assert the caller holds every
//     guard, and locals built by a new*/New* call or a composite
//     literal are exempt: the object is not shared yet. An annotation
//     naming no sibling field is itself reported.
//
//  2. Lock-acquisition order. Every `x.Lock()` reached while other
//     mutexes are held contributes an order edge held→acquired; calls
//     into functions that (transitively) acquire locks contribute
//     edges through cross-package "acquires" facts. A cycle in the
//     resulting graph is a potential deadlock — e.g. the documented
//     coordinator rule "mu is the outermost lock; the service's own
//     locks are acquired inside it" is exactly the assertion that
//     cluster.Coordinator.mu → service.Server.mu never gains a
//     reverse edge.
//
//  3. Unlocked windows. The unlock-validate-relock pattern (the
//     coordinator's handleResult) reads `guarded by mu` state under
//     the lock, unlocks to do slow work, then relocks and revalidates.
//     Values derived from guarded state — pointers, maps, slices —
//     that are *used* inside the unlocked window refer to state
//     another goroutine may be mutating; each such use must either
//     move back under the lock or carry an explicit justification.
//     Channels are deliberately not tracked: snapshotting a notify
//     channel and receiving on it after Unlock is the sanctioned
//     long-poll pattern.
//
// A deferred call takes effect only on the CFG's exit block, so
// `defer mu.Unlock()` keeps the lock held to the end of the function.
// A `go` statement's call runs on a goroutine of its own: the locks it
// takes are not ordered after the launcher's.
// Each closure body is analyzed as a function of its own that starts
// with no lock held: it may run after the enclosing window closed.
// Escapes the analysis cannot see are annotated
// `//sadplint:ignore lockorder <reason>`, with the reason mandatory.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"

	"repro/internal/analyzers/lint"
)

// Analyzer is the lockorder pass.
var Analyzer = &lint.Analyzer{
	Name: analyzerName,
	Doc: "reads/writes of `// guarded by <mu>` fields must hold the named mutex; " +
		"build the cross-package lock-acquisition-order graph and report cycles; " +
		"report uses of guarded-state-derived values inside unlocked windows",
	Run: run,
}

const analyzerName = "lockorder"

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// Lock states of one mutex inside one function, for the order and
// window checks.
const (
	notHeld  = 0
	held     = 1
	released = 2 // was held, currently unlocked: the window
)

// Kinds of the must-hold set. The read lock is the larger, so the
// join's maximum keeps it where paths disagree.
const (
	writeLocked = 1
	readLocked  = 2
)

// lockOps maps the sync mutex methods to the kind they take, 0 for a
// release.
var lockOps = map[string]int{
	"Lock": writeLocked, "TryLock": writeLocked,
	"RLock": readLocked, "TryRLock": readLocked,
	"Unlock": 0, "RUnlock": 0,
}

func run(pass *lint.Pass) error {
	guards := collectGuards(pass)

	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}

	// Phase 1: "acquires" facts. Each function's fact is the set of
	// mutexes it may lock, directly or through callees, iterated to a
	// fixpoint so intra-package call order does not matter.
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			acq := map[string]bool{}
			if prev, ok := pass.FactOf(obj); ok && prev != "" {
				for _, m := range strings.Split(prev, ",") {
					acq[m] = true
				}
			}
			before := len(acq)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false // closures and goroutines run on their own goroutine/time
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, m, op := lockSite(pass.TypesInfo, call); m != "" && lockOps[op] > 0 {
					acq[m] = true
				}
				if callee := calleeOf(pass.TypesInfo, call); callee != nil {
					if fact, ok := pass.FactOf(callee); ok && fact != "" {
						for _, m := range strings.Split(fact, ",") {
							acq[m] = true
						}
					}
				}
				return true
			})
			if len(acq) != before {
				changed = true
			}
			if len(acq) > 0 {
				pass.ExportFact(obj, strings.Join(sortedKeys(acq), ","))
			}
		}
	}

	// Phase 2: per-function CFG dataflow — guarded accesses, order edges
	// and unlocked windows. Closures inherit the *Locked convention and
	// the fresh locals of their enclosing function.
	c := &checker{pass: pass, guards: guards, edges: map[string]edge{}}
	for _, fd := range fns {
		c.assumeHeld = strings.HasSuffix(fd.Name.Name, "Locked")
		c.fresh = freshLocals(pass.TypesInfo, fd.Body)
		c.checkBody(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkBody(lit.Body)
			}
			return true
		})
	}

	// Phase 3: merge this package's edges into the fact store and
	// report any cycle a new edge closes.
	c.reportCycles()
	return nil
}

// A guard names a field's mutex two ways: the sibling field name, which
// the access check joins to the base expression, and the type-level
// identity pkg.Type.mu the order and window checks share.
type guard struct{ mu, id string }

// collectGuards maps every struct field annotated `guarded by X` (the
// first such phrase of its doc or line comment) to its guard, and
// reports an X that names no sibling field.
func collectGuards(pass *lint.Pass) map[types.Object]guard {
	guards := map[types.Object]guard{}
	pkg := pass.Pkg.Path() + "."
	named := map[*ast.StructType]string{} // struct → "Type." when declared by a TypeSpec
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					named[st] = n.Name.Name + "."
				}
			case *ast.StructType:
				siblings := map[string]bool{}
				for _, fld := range n.Fields.List {
					for _, name := range fld.Names {
						siblings[name.Name] = true
					}
				}
				for _, fld := range n.Fields.List {
					mu := ""
					for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
						if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
							mu = m[1]
							break
						}
					}
					if mu == "" {
						continue
					}
					if !siblings[mu] {
						pass.Reportf(fld.Pos(), "`guarded by %s` names no sibling field of this struct", mu)
						continue
					}
					for _, name := range fld.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							guards[obj] = guard{mu: mu, id: pkg + named[n] + mu}
						}
					}
				}
			}
			return true
		})
	}
	return guards
}

// freshLocals returns the locals a `:=` initializes from a new*/New*
// call or a composite literal: the value cannot be shared with another
// goroutine yet, so pre-publication initialization may touch its
// guarded fields lock-free.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 || !freshExpr(as.Rhs[0]) {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && info.Defs[id] != nil {
				fresh[info.Defs[id]] = true
			}
		}
		return true
	})
	return fresh
}

func freshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		name := ""
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		return strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New")
	}
	return false
}

type edge struct {
	from, to string
	pos      ast.Node
}

type checker struct {
	pass   *lint.Pass
	guards map[types.Object]guard
	edges  map[string]edge // "from\x00to" → first occurrence this package

	// Per function: the *Locked convention, the fresh locals, and
	// whether the replay pass over the fixpoint reports (with the
	// window values it already reported).
	assumeHeld bool
	fresh      map[types.Object]bool
	report     bool
	reported   map[types.Object]bool
}

// mstate is the dataflow state: per-mutex lock state, current
// acquisition order, which locals derive from guarded state, and the
// must-hold set.
type mstate struct {
	locks   map[string]int
	order   []string
	derived map[types.Object]string // local → guarding mutex id
	must    map[string]int          // mutex expression ("s.mu") → writeLocked/readLocked
}

func copyM(s *mstate) *mstate {
	return &mstate{
		locks:   maps.Clone(s.locks),
		order:   slices.Clone(s.order),
		derived: maps.Clone(s.derived),
		must:    maps.Clone(s.must),
	}
}

// joinM merges paths. Lock states join to the maximum (notHeld < held
// < released): a mutex released on either incoming path opens the
// window at the join. The must-hold set joins by intersection, and a
// kind the paths disagree on becomes the read lock.
func joinM(dst, src *mstate) bool {
	changed := false
	for k, v := range src.locks {
		if v > dst.locks[k] {
			dst.locks[k] = v
			changed = true
		}
	}
	for _, m := range src.order {
		if dst.locks[m] == held && !slices.Contains(dst.order, m) {
			dst.order = append(dst.order, m)
			changed = true
		}
	}
	for k, v := range src.derived {
		if _, ok := dst.derived[k]; !ok {
			dst.derived[k] = v
			changed = true
		}
	}
	for k, v := range dst.must {
		if w := src.must[k]; w == 0 {
			delete(dst.must, k)
			changed = true
		} else if w > v {
			dst.must[k] = w
			changed = true
		}
	}
	return changed
}

// checkBody runs the dataflow over one function or closure body to a
// fixpoint, then replays every reachable block from its fixed input
// state with reporting on.
func (c *checker) checkBody(body *ast.BlockStmt) {
	g := lint.BuildCFG(body)
	c.report = false
	c.reported = map[types.Object]bool{}
	in := lint.Forward(g, lint.Flow[*mstate]{
		Entry: &mstate{locks: map[string]int{}, derived: map[types.Object]string{}, must: map[string]int{}},
		Copy:  copyM,
		Join:  joinM,
		Transfer: func(n ast.Node, blk *lint.Block, s *mstate) {
			c.transfer(n, blk == g.Exit, s)
		},
	})
	c.report = true
	for i, blk := range g.Blocks {
		if in[i] == nil {
			continue // unreachable
		}
		s := copyM(in[i])
		for _, n := range blk.Nodes {
			c.transfer(n, blk == g.Exit, s)
		}
	}
}

func (c *checker) transfer(n ast.Node, exit bool, s *mstate) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if exit {
			// A deferred call: its function value and arguments were
			// evaluated at the defer statement; only the call runs here.
			c.call(n, s)
			return
		}
		c.walk(n, s, false)
	case *ast.DeferStmt:
		c.operands(n.Call, s) // the call runs on the exit block
	case *ast.GoStmt:
		c.operands(n.Call, s) // the call runs on a goroutine of its own, under no lock held here
	case *ast.RangeStmt:
		// The header's per-iteration key/value binding: the body runs in
		// blocks of its own, and X was evaluated before the loop.
		c.bind([]ast.Expr{n.Key, n.Value}, c.derivedMutex(n.X, s), s)
	case *ast.AssignStmt:
		// RHS first: lock ops, accesses, window uses, and derivedness.
		from := ""
		for _, rhs := range n.Rhs {
			c.walk(rhs, s, false)
			if m := c.derivedMutex(rhs, s); m != "" {
				from = m
			}
		}
		c.bind(n.Lhs, from, s)
	case *ast.IncDecStmt:
		c.walk(n.X, s, true)
	default:
		c.walk(n, s, false)
	}
}

// walk handles lock operations, acquires-fact calls, guarded accesses
// and window uses inside one straight-line node. write marks n itself
// as written; selections nested inside it are reads.
func (c *checker) walk(n ast.Node, s *mstate, write bool) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false // a body of its own
		case *ast.CallExpr:
			c.call(nd, s)
		case *ast.SelectorExpr:
			c.access(nd, s, write && nd == n)
		case *ast.Ident:
			c.useCheck(nd, s)
		}
		return true
	})
}

// operands evaluates a call's function value and arguments without
// making the call.
func (c *checker) operands(call *ast.CallExpr, s *mstate) {
	c.walk(call.Fun, s, false)
	for _, arg := range call.Args {
		c.walk(arg, s, false)
	}
}

func (c *checker) call(call *ast.CallExpr, s *mstate) {
	key, m, op := lockSite(c.pass.TypesInfo, call)
	switch kind := lockOps[op]; {
	case op == "":
		callee := calleeOf(c.pass.TypesInfo, call)
		if fact, ok := c.pass.FactOf(callee); ok && fact != "" {
			for _, m := range strings.Split(fact, ",") {
				c.edgesTo(m, call, s)
			}
		}
	case kind == 0:
		delete(s.must, key)
		if s.locks[m] == held {
			s.locks[m] = released
		}
		s.order = slices.DeleteFunc(s.order, func(h string) bool { return h == m })
	default:
		s.must[key] = kind
		if m == "" {
			return // a local mutex: no identity for the order and window checks
		}
		c.edgesTo(m, call, s)
		if s.locks[m] != held {
			s.locks[m] = held
			s.order = append(s.order, m)
		}
		// Relocking closes the window: derived values are expected to be
		// revalidated, and stale ones are the revalidation code's
		// responsibility now.
		for k, g := range s.derived {
			if g == m {
				delete(s.derived, k)
			}
		}
	}
}

// edgesTo records an order edge to m from every other mutex held,
// keeping the first occurrence of each edge in the package.
func (c *checker) edgesTo(m string, at ast.Node, s *mstate) {
	for _, h := range s.order {
		key := h + "\x00" + m
		if _, ok := c.edges[key]; !ok && h != m {
			c.edges[key] = edge{from: h, to: m, pos: at}
		}
	}
}

// access checks one selection of a guarded field: its mutex on the same
// base expression must be held on every path, for writing when the
// selection is written.
func (c *checker) access(sel *ast.SelectorExpr, s *mstate, write bool) {
	if !c.report || c.assumeHeld {
		return
	}
	g, ok := c.guards[c.pass.TypesInfo.Uses[sel.Sel]]
	if !ok {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok && c.fresh[c.pass.TypesInfo.Uses[id]] {
		return
	}
	base := types.ExprString(sel.X)
	switch kind := s.must[base+"."+g.mu]; {
	case kind == 0:
		c.pass.Reportf(sel.Pos(), "%s is guarded by %s.%s but accessed without holding it", types.ExprString(sel), base, g.mu)
	case write && kind == readLocked:
		c.pass.Reportf(sel.Pos(), "%s is written while %s.%s is only read-locked (RLock): writes need the write lock", types.ExprString(sel), base, g.mu)
	}
}

// useCheck reports a read of a guarded-state-derived value inside the
// unlocked window, once per value per function.
func (c *checker) useCheck(id *ast.Ident, s *mstate) {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	m, ok := s.derived[obj]
	if !ok || s.locks[m] != released {
		return
	}
	if c.report && !c.reported[obj] {
		c.reported[obj] = true
		c.pass.Reportf(id.Pos(),
			"%s derives from %s-guarded state and is used in the unlocked window; re-read it under the lock or justify with //sadplint:ignore lockorder",
			id.Name, shortMutex(m))
	}
}

// bind assigns to each target: an identifier takes the derivedness of
// the right-hand side (from, a mutex id or ""), anything else is a
// written access whose base is a use.
func (c *checker) bind(lhs []ast.Expr, from string, s *mstate) {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			if l != nil {
				c.walk(l, s, true)
			}
			continue
		}
		if id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if from != "" && trackable(obj.Type()) {
			s.derived[obj] = from
		} else {
			delete(s.derived, obj)
		}
	}
}

// derivedMutex reports the guard of any guarded field read (while its
// mutex is held) or already-derived value inside the expression.
func (c *checker) derivedMutex(e ast.Expr, s *mstate) string {
	found := ""
	ast.Inspect(e, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if g, ok := c.guards[c.pass.TypesInfo.Uses[nd.Sel]]; ok && s.locks[g.id] == held {
				found = g.id
			}
		case *ast.Ident:
			if m, ok := s.derived[c.pass.TypesInfo.Uses[nd]]; ok {
				found = m
			}
		}
		return true
	})
	return found
}

// reportCycles merges the package's edges into the cross-package fact
// graph and reports every cycle a newly added edge closes.
func (c *checker) reportCycles() {
	// Existing graph from facts (dependencies and earlier passes).
	graph := map[string][]string{}
	for _, k := range c.pass.Facts.Keys(analyzerName) {
		if from, to, ok := cutEdgeKey(k); ok {
			graph[from] = append(graph[from], to)
		}
	}
	var newEdges []edge
	for _, k := range sortedKeys(c.edges) {
		e := c.edges[k]
		factKey := "edge:" + e.from + "->" + e.to
		if _, exists := c.pass.Facts.Get(analyzerName, factKey); !exists {
			newEdges = append(newEdges, e)
		}
		c.pass.Facts.Set(analyzerName, factKey, c.pass.Fset.Position(e.pos.Pos()).String())
		if !slices.Contains(graph[e.from], e.to) {
			graph[e.from] = append(graph[e.from], e.to)
		}
	}
	seenCycle := map[string]bool{}
	for _, e := range newEdges {
		if path := findPath(graph, e.to, e.from); path != nil {
			// path runs e.to → … → e.from; prepending e.from closes the
			// cycle e.from → e.to → … → e.from.
			cycle := append([]string{e.from}, path...)
			key := canonicalCycle(cycle[:len(cycle)-1])
			if seenCycle[key] {
				continue
			}
			seenCycle[key] = true
			short := make([]string, len(cycle))
			for i, m := range cycle {
				short[i] = shortMutex(m)
			}
			c.pass.Reportf(e.pos.Pos(),
				"acquiring %s while holding %s creates a lock-order cycle: %s",
				shortMutex(e.to), shortMutex(e.from), strings.Join(short, " -> "))
		}
	}
}

// findPath returns a path from→…→to in graph, or nil.
func findPath(graph map[string][]string, from, to string) []string {
	type frame struct {
		node string
		path []string
	}
	seen := map[string]bool{from: true}
	stack := []frame{{from, []string{from}}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.node == to {
			return f.path
		}
		succs := append([]string(nil), graph[f.node]...)
		sort.Strings(succs)
		for _, s := range succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, append(append([]string(nil), f.path...), s)})
			}
		}
	}
	return nil
}

// lockSite recognizes `<x>.Lock()` and friends on a sync mutex. It
// returns the receiver expression (the must-hold key, "s.mu"), the
// mutex identity of the order and window checks (pkg.Type.field for
// struct fields, pkg.name for package-level vars, "" for locals) and
// the method; op is "" for any other call.
func lockSite(info *types.Info, call *ast.CallExpr) (key, id, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	if _, ok := lockOps[sel.Sel.Name]; !ok {
		return "", "", ""
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", ""
	}
	return types.ExprString(sel.X), mutexIdent(info, sel.X), sel.Sel.Name
}

// mutexIdent names the mutex expression: pkg.Type.field for struct
// fields, pkg.name for package-level vars, "" otherwise.
func mutexIdent(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if tv, ok := info.Types[e.X]; ok {
			if name := namedTypeName(tv.Type); name != "" {
				return obj.Pkg().Path() + "." + name + "." + obj.Name()
			}
		}
		return obj.Pkg().Path() + "." + obj.Name()
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// trackable limits derived-value tracking to reference types whose
// pointee another goroutine can mutate. Channels are excluded by
// design (the notify-channel snapshot pattern).
func trackable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return true
	}
	return false
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

// shortMutex trims the identity to Type.field for messages.
func shortMutex(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		id = id[i+1:]
	}
	if i := strings.IndexByte(id, '.'); i >= 0 {
		return id[i+1:]
	}
	return id
}

func cutEdgeKey(k string) (string, string, bool) {
	rest, ok := strings.CutPrefix(k, "edge:")
	if !ok {
		return "", "", false
	}
	from, to, ok := strings.Cut(rest, "->")
	return from, to, ok
}

func canonicalCycle(cycle []string) string {
	// Rotate so the lexicographically smallest node leads.
	min := 0
	for i, m := range cycle {
		if m < cycle[min] {
			min = i
		}
	}
	out := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	return strings.Join(out, "->")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
