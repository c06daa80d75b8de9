package ilp

// refSolve is the branch and bound as it stood before propagation
// became incremental, kept verbatim as the test-only reference of
// TestSolveMatchesReference and FuzzSolve. It sweeps every constraint
// to a fixpoint at every node, scans all variables for the branching
// choice and builds the bound from a per-node map. Solve must search
// exactly the tree this searches: same nodes, same incumbents, same
// Result. It does not report Result.TimedOut; the differential runs
// without a wall-clock limit.

import (
	"sort"
	"time"
)

// refSolve maximizes the model's objective by branch and bound over the
// connected components of the variable/constraint incidence graph.
func refSolve(m *Model, opts Options) Result {
	n := len(m.obj)
	res := Result{Status: Optimal, X: make([]int8, n)}
	// Constraints whose terms cancelled to nothing are constant: they
	// are either trivially true or make the whole model infeasible, and
	// they belong to no refComponent.
	for _, c := range m.cons {
		if len(c.terms) == 0 && c.rhs < 0 {
			return Result{Status: Infeasible}
		}
	}
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	warm := opts.WarmStart
	if warm != nil && m.Verify(warm) != nil {
		warm = nil
	}
	comps := refComponents(m)
	res.Components = len(comps)
	for _, comp := range comps {
		sub := newRefSubproblem(m, comp)
		if warm != nil {
			sub.seedIncumbent(m, comp, warm)
		}
		cr := sub.solve(opts.NodeLimit, deadline)
		res.Nodes += cr.nodes
		switch cr.status {
		case Infeasible:
			return Result{Status: Infeasible, Nodes: res.Nodes, Components: res.Components}
		case Unknown:
			return Result{Status: Unknown, Nodes: res.Nodes, Components: res.Components}
		case Feasible:
			res.Status = Feasible
		}
		for i, v := range comp.vars {
			res.X[v] = cr.best[i]
		}
		res.Objective += cr.objective
	}
	return res
}

// refComponent is a set of variables and the constraints touching them.
type refComponent struct {
	vars []int
	cons []int
}

// refComponents partitions variables into connected components: two
// variables are connected when they share a constraint. Isolated
// variables form singleton components.
func refComponents(m *Model) []refComponent {
	n := len(m.obj)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range m.cons {
		for i := 1; i < len(c.terms); i++ {
			union(int32(c.terms[0].Var), int32(c.terms[i].Var))
		}
	}
	byRoot := map[int32]*refComponent{}
	var order []int32
	for v := 0; v < n; v++ {
		r := find(int32(v))
		cp := byRoot[r]
		if cp == nil {
			cp = &refComponent{}
			byRoot[r] = cp
			order = append(order, r)
		}
		cp.vars = append(cp.vars, v)
	}
	for ci, c := range m.cons {
		if len(c.terms) == 0 {
			continue
		}
		r := find(int32(c.terms[0].Var))
		byRoot[r].cons = append(byRoot[r].cons, ci)
	}
	out := make([]refComponent, 0, len(order))
	for _, r := range order {
		out = append(out, *byRoot[r])
	}
	return out
}

// refSubproblem is one refComponent re-indexed to local variables.
type refSubproblem struct {
	obj  []int64
	cons []refLocalCons
	// varCons[v] lists constraint indices containing local var v.
	varCons [][]int32
	// packOf[v] is the packing constraint used to bound var v's
	// objective contribution, or -1.
	packOf []int32

	// search state
	assign        []int8
	sum           []int64 // per-constraint Σ coef·val over assigned vars
	minRem        []int64 // per-constraint Σ min(0, coef) over unassigned vars
	unassignedPos []int64 // per-constraint count of unassigned vars (for packing bound)

	trail []refTrailEntry
	nodes int64

	best    []int8
	bestObj int64
	hasBest bool
}

type refLocalCons struct {
	vars    []int32
	coefs   []int64
	rhs     int64
	packing bool // all coefs 1 and rhs >= 0
}

type refTrailEntry struct {
	v int32
}

func newRefSubproblem(m *Model, comp refComponent) *refSubproblem {
	local := make(map[int]int32, len(comp.vars))
	for i, v := range comp.vars {
		local[v] = int32(i)
	}
	s := &refSubproblem{
		obj:     make([]int64, len(comp.vars)),
		varCons: make([][]int32, len(comp.vars)),
		packOf:  make([]int32, len(comp.vars)),
		assign:  make([]int8, len(comp.vars)),
	}
	for i, v := range comp.vars {
		s.obj[i] = m.obj[v]
		s.packOf[i] = -1
		s.assign[i] = -1
	}
	for _, ci := range comp.cons {
		c := m.cons[ci]
		lc := refLocalCons{rhs: c.rhs, packing: c.rhs >= 0}
		for _, t := range c.terms {
			lv := local[t.Var]
			lc.vars = append(lc.vars, lv)
			lc.coefs = append(lc.coefs, t.Coef)
			if t.Coef != 1 {
				lc.packing = false
			}
		}
		idx := int32(len(s.cons))
		s.cons = append(s.cons, lc)
		for _, lv := range lc.vars {
			s.varCons[lv] = append(s.varCons[lv], idx)
		}
	}
	// Assign each positive-objective variable to one packing
	// constraint for the bound.
	for ci, c := range s.cons {
		if !c.packing {
			continue
		}
		for _, lv := range c.vars {
			if s.obj[lv] > 0 && s.packOf[lv] == -1 {
				s.packOf[lv] = int32(ci)
			}
		}
	}
	s.sum = make([]int64, len(s.cons))
	s.minRem = make([]int64, len(s.cons))
	for ci, c := range s.cons {
		for _, coef := range c.coefs {
			if coef < 0 {
				s.minRem[ci] += coef
			}
		}
	}
	return s
}

// seedIncumbent installs a verified global assignment as this
// refComponent's starting incumbent.
func (s *refSubproblem) seedIncumbent(m *Model, comp refComponent, warm []int8) {
	s.best = make([]int8, len(comp.vars))
	s.bestObj = 0
	for i, v := range comp.vars {
		s.best[i] = warm[v]
		s.bestObj += m.obj[v] * int64(warm[v])
	}
	s.hasBest = true
}

type refComponentResult struct {
	status    Status
	best      []int8
	objective int64
	nodes     int64
}

func (s *refSubproblem) solve(nodeLimit int64, deadline time.Time) refComponentResult {
	// Root propagation catches constraints that force variables
	// outright (e.g. x <= 0).
	if !s.propagateAll() {
		return refComponentResult{status: Infeasible, nodes: s.nodes}
	}
	limited := s.search(nodeLimit, deadline)
	switch {
	case !s.hasBest && limited:
		return refComponentResult{status: Unknown, nodes: s.nodes}
	case !s.hasBest:
		return refComponentResult{status: Infeasible, nodes: s.nodes}
	case limited:
		return refComponentResult{status: Feasible, best: s.best, objective: s.bestObj, nodes: s.nodes}
	}
	return refComponentResult{status: Optimal, best: s.best, objective: s.bestObj, nodes: s.nodes}
}

// set assigns var v to val, updating constraint sums. It returns false
// if some constraint becomes unsatisfiable.
func (s *refSubproblem) set(v int32, val int8) bool {
	s.assign[v] = val
	s.trail = append(s.trail, refTrailEntry{v: v})
	ok := true
	for _, ci := range s.varCons[v] {
		c := &s.cons[ci]
		coef := s.coefOf(ci, v)
		s.sum[ci] += coef * int64(val)
		if coef < 0 {
			s.minRem[ci] -= coef
		}
		if s.sum[ci]+s.minRem[ci] > c.rhs {
			ok = false
		}
	}
	return ok
}

func (s *refSubproblem) coefOf(ci int32, v int32) int64 {
	c := &s.cons[ci]
	for i, cv := range c.vars {
		if cv == v {
			return c.coefs[i]
		}
	}
	panic("ilp: coefOf on var not in constraint")
}

// undoTo rolls the trail back to length mark.
func (s *refSubproblem) undoTo(mark int) {
	for len(s.trail) > mark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		val := s.assign[e.v]
		for _, ci := range s.varCons[e.v] {
			coef := s.coefOf(ci, e.v)
			s.sum[ci] -= coef * int64(val)
			if coef < 0 {
				s.minRem[ci] += coef
			}
		}
		s.assign[e.v] = -1
	}
}

// propagateAll runs unit propagation to a fixpoint over all
// constraints. Returns false on conflict; assignments stay on the
// trail for the caller to undo.
func (s *refSubproblem) propagateAll() bool {
	for changed := true; changed; {
		changed = false
		for ci := range s.cons {
			st := s.propagateCons(int32(ci))
			if st < 0 {
				return false
			}
			if st > 0 {
				changed = true
			}
		}
	}
	return true
}

// propagateCons forces variables in constraint ci whose value is
// implied. Returns -1 on conflict, 1 if something was assigned, else 0.
func (s *refSubproblem) propagateCons(ci int32) int {
	c := &s.cons[ci]
	if s.sum[ci]+s.minRem[ci] > c.rhs {
		return -1
	}
	assigned := 0
	for i, v := range c.vars {
		if s.assign[v] != -1 {
			continue
		}
		coef := c.coefs[i]
		// Minimum achievable total if v takes each value, with every
		// other unassigned var at its minimum contribution.
		base := s.sum[ci] + s.minRem[ci]
		if coef < 0 {
			base -= coef // remove v's min contribution
		}
		canZero := base <= c.rhs
		canOne := base+coef <= c.rhs
		switch {
		case !canZero && !canOne:
			return -1
		case !canOne:
			if !s.set(v, 0) {
				return -1
			}
			assigned = 1
		case !canZero:
			if !s.set(v, 1) {
				return -1
			}
			assigned = 1
		}
	}
	return assigned
}

// bound returns an upper bound on the objective achievable from the
// current partial assignment: the assigned contribution plus, for
// unassigned positive-objective variables, either their packing-
// constraint slack allowance or their raw coefficient.
func (s *refSubproblem) bound() int64 {
	var ub int64
	type packAgg struct {
		objs []int64
	}
	packs := map[int32]*packAgg{}
	for v := range s.obj {
		switch s.assign[v] {
		case 1:
			ub += s.obj[v]
		case -1:
			if s.obj[v] <= 0 {
				continue
			}
			if p := s.packOf[v]; p >= 0 {
				agg := packs[p]
				if agg == nil {
					agg = &packAgg{}
					packs[p] = agg
				}
				agg.objs = append(agg.objs, s.obj[v])
			} else {
				ub += s.obj[v]
			}
		}
	}
	for ci, agg := range packs {
		slack := s.cons[ci].rhs - s.sum[ci]
		if slack <= 0 {
			continue
		}
		if int64(len(agg.objs)) <= slack {
			for _, o := range agg.objs {
				ub += o
			}
			continue
		}
		sort.Slice(agg.objs, func(a, b int) bool { return agg.objs[a] > agg.objs[b] })
		for i := int64(0); i < slack; i++ {
			ub += agg.objs[i]
		}
	}
	return ub
}

// search runs DFS branch and bound. It returns true when a limit was
// hit (the incumbent may nevertheless be optimal, but unproven).
func (s *refSubproblem) search(nodeLimit int64, deadline time.Time) (limited bool) {
	var rec func() bool
	rec = func() bool {
		s.nodes++
		if nodeLimit > 0 && s.nodes > nodeLimit {
			return true
		}
		if !deadline.IsZero() && s.nodes%1024 == 0 && time.Now().After(deadline) {
			return true
		}
		v := s.pickVar()
		if v < 0 {
			// Complete assignment; constraints hold by construction.
			obj := int64(0)
			for i, val := range s.assign {
				obj += s.obj[i] * int64(val)
			}
			if !s.hasBest || obj > s.bestObj {
				s.hasBest = true
				s.bestObj = obj
				s.best = append(s.best[:0], s.assign...)
			}
			return false
		}
		if s.hasBest && s.bound() <= s.bestObj {
			return false // cannot improve
		}
		order := [2]int8{1, 0}
		if s.obj[v] < 0 {
			order = [2]int8{0, 1}
		}
		for _, val := range order {
			mark := len(s.trail)
			if s.set(v, val) && s.propagateAll() {
				if rec() {
					s.undoTo(mark)
					return true
				}
			}
			s.undoTo(mark)
		}
		return false
	}
	return rec()
}

// pickVar selects the next branching variable: the unassigned variable
// with the largest |objective|, tie-broken by constraint degree. -1
// when all variables are assigned.
func (s *refSubproblem) pickVar() int32 {
	best := int32(-1)
	var bestKey [2]int64
	for v := range s.obj {
		if s.assign[v] != -1 {
			continue
		}
		key := [2]int64{refAbs64(s.obj[v]), int64(len(s.varCons[v]))}
		if best == -1 || key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
			best = int32(v)
			bestKey = key
		}
	}
	return best
}

func refAbs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
