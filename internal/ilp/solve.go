package ilp

import (
	"cmp"
	"slices"
	"time"
)

// Solve maximizes the model's objective by branch and bound over the
// connected components of the variable/constraint incidence graph.
//
// Each node does only the work its own assignments can change. Fixing
// a variable queues the constraints whose slack it lowered, and
// propagation runs that queue, not every constraint, to a fixpoint.
// Bounds propagation on ≤ rows is monotone, so the fixpoint, or the
// conflict, does not depend on the queue's order: every node fixes
// the same variables a full sweep would, and the tree is the one the
// plain sweep searches.
func Solve(m *Model, opts Options) Result {
	n := len(m.obj)
	res := Result{Status: Optimal, X: make([]int8, n)}
	// Constraints whose terms cancelled to nothing are constant: they
	// are either trivially true or make the whole model infeasible, and
	// they belong to no component.
	for _, c := range m.cons {
		if len(c.terms) == 0 && c.rhs < 0 {
			return Result{Status: Infeasible}
		}
	}
	var deadline time.Time
	if opts.TimeLimit > 0 {
		//sadplint:ignore detclock TimeLimit is the opt-in wall-clock budget and a stop it causes is reported as Result.TimedOut; NodeLimit is the deterministic one
		deadline = time.Now().Add(opts.TimeLimit)
	}

	warm := opts.WarmStart
	if warm != nil && m.Verify(warm) != nil {
		warm = nil
	}
	comps := m.components()
	res.Components = len(comps)
	local := make([]int32, n)
	for _, comp := range comps {
		sub := newSubproblem(m, comp, local)
		if warm != nil {
			sub.seedIncumbent(m, comp, warm)
		}
		cr := sub.solve(opts.NodeLimit, deadline)
		res.Nodes += cr.nodes
		res.TimedOut = res.TimedOut || cr.timedOut
		switch cr.status {
		case Infeasible:
			return Result{Status: Infeasible, Nodes: res.Nodes, Components: res.Components, TimedOut: res.TimedOut}
		case Unknown:
			return Result{Status: Unknown, Nodes: res.Nodes, Components: res.Components, TimedOut: res.TimedOut}
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

// component is a set of variables and the constraints touching them,
// each in increasing index order.
type component struct {
	vars []int
	cons []int
}

// components partitions variables into connected components: two
// variables are connected when they share a constraint. Isolated
// variables form singleton components. Components are ordered by their
// lowest variable.
func (m *Model) components() []component {
	n := len(m.obj)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range m.cons {
		for i := 1; i < len(c.terms); i++ {
			ra, rb := find(int32(c.terms[0].Var)), find(int32(c.terms[i].Var))
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	idOfRoot := make([]int32, n)
	for i := range idOfRoot {
		idOfRoot[i] = -1
	}
	var out []component
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if idOfRoot[r] < 0 {
			idOfRoot[r] = int32(len(out))
			out = append(out, component{})
		}
		cp := &out[idOfRoot[r]]
		cp.vars = append(cp.vars, v)
	}
	for ci, c := range m.cons {
		if len(c.terms) == 0 {
			continue
		}
		cp := &out[idOfRoot[find(int32(c.terms[0].Var))]]
		cp.cons = append(cp.cons, ci)
	}
	return out
}

// subproblem is one component re-indexed to local variables.
type subproblem struct {
	obj  []int64
	cons []localCons
	// varCons[v] lists the constraints containing local var v, each
	// with v's coefficient in it.
	varCons [][]incidence
	// order is the branching order: |objective| descending, then
	// constraint degree descending, then index ascending.
	order []int32
	// packs are the packing constraints the bound uses, each with the
	// positive-objective variables it bounds.
	packs []pack
	// looseObj[v] is v's objective if it is positive and no packing
	// constraint bounds it, else 0.
	looseObj []int64

	// search state
	assign []int8
	// slack[ci] is rhs minus the least activity constraint ci can
	// still reach: Σ coef·val over assigned vars plus Σ min(0, coef)
	// over unassigned ones.
	slack []int64
	// queue holds the constraints awaiting propagation; queued marks
	// its members.
	queue  []int32
	queued []bool
	trail  []int32
	// assignedObj is Σ obj over variables fixed to 1; freeObj is Σ
	// looseObj over unassigned variables.
	assignedObj int64
	freeObj     int64

	nodeLimit int64
	deadline  time.Time
	nodes     int64
	timedOut  bool

	best    []int8
	bestObj int64
	hasBest bool
}

type localCons struct {
	terms []localTerm
	// maxAbs is the largest |coef|: with at least that much slack the
	// constraint can force nothing.
	maxAbs int64
}

type localTerm struct {
	v    int32
	coef int64
}

type incidence struct {
	ci   int32
	coef int64
}

// pack is a packing constraint (all coefs 1, rhs ≥ 0) with the
// variables whose bound contribution it caps, largest objective first.
type pack struct {
	ci      int32
	members []int32
}

// newSubproblem re-indexes comp to local variables. local is scratch
// of one entry per model variable.
func newSubproblem(m *Model, comp component, local []int32) *subproblem {
	nv, nc := len(comp.vars), len(comp.cons)
	s := &subproblem{
		obj:      make([]int64, nv),
		cons:     make([]localCons, nc),
		varCons:  make([][]incidence, nv),
		looseObj: make([]int64, nv),
		assign:   make([]int8, nv),
		slack:    make([]int64, nc),
		queue:    make([]int32, 0, nc),
		queued:   make([]bool, nc),
		trail:    make([]int32, 0, nv),
	}
	for i, v := range comp.vars {
		local[v] = int32(i)
		s.obj[i] = m.obj[v]
		s.assign[i] = -1
	}
	nTerms := 0
	for _, ci := range comp.cons {
		nTerms += len(m.cons[ci].terms)
	}
	terms := make([]localTerm, nTerms)
	degree := make([]int, nv)
	packOf := make([]int32, nv)
	for i := range packOf {
		packOf[i] = -1
	}
	for k, ci := range comp.cons {
		c := m.cons[ci]
		lc := &s.cons[k]
		lc.terms, terms = terms[:len(c.terms):len(c.terms)], terms[len(c.terms):]
		s.slack[k] = c.rhs
		packing := c.rhs >= 0
		for i, t := range c.terms {
			lv := local[t.Var]
			lc.terms[i] = localTerm{v: lv, coef: t.Coef}
			lc.maxAbs = max(lc.maxAbs, abs64(t.Coef))
			degree[lv]++
			if t.Coef < 0 {
				s.slack[k] -= t.Coef
			}
			if t.Coef != 1 {
				packing = false
			}
		}
		// Each positive-objective variable is bounded by the first
		// packing constraint that contains it.
		if packing {
			for _, t := range lc.terms {
				if s.obj[t.v] > 0 && packOf[t.v] < 0 {
					packOf[t.v] = int32(k)
				}
			}
		}
	}
	inc := make([]incidence, nTerms)
	for v, d := range degree {
		s.varCons[v], inc = inc[:0:d], inc[d:]
	}
	for k, lc := range s.cons {
		for _, t := range lc.terms {
			s.varCons[t.v] = append(s.varCons[t.v], incidence{ci: int32(k), coef: t.coef})
		}
	}

	s.order = make([]int32, nv)
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		if c := cmp.Compare(abs64(s.obj[b]), abs64(s.obj[a])); c != 0 {
			return c
		}
		if c := cmp.Compare(degree[b], degree[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	var packed []int32
	for v, p := range packOf {
		switch {
		case p >= 0:
			packed = append(packed, int32(v))
		case s.obj[v] > 0:
			s.looseObj[v] = s.obj[v]
			s.freeObj += s.obj[v]
		}
	}
	slices.SortFunc(packed, func(a, b int32) int {
		if c := cmp.Compare(packOf[a], packOf[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(s.obj[b], s.obj[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i := 0; i < len(packed); {
		j := i + 1
		for j < len(packed) && packOf[packed[j]] == packOf[packed[i]] {
			j++
		}
		s.packs = append(s.packs, pack{ci: packOf[packed[i]], members: packed[i:j:j]})
		i = j
	}
	return s
}

// seedIncumbent installs a verified global assignment as this
// component's starting incumbent.
func (s *subproblem) seedIncumbent(m *Model, comp component, warm []int8) {
	s.best = make([]int8, len(comp.vars))
	s.bestObj = 0
	for i, v := range comp.vars {
		s.best[i] = warm[v]
		s.bestObj += m.obj[v] * int64(warm[v])
	}
	s.hasBest = true
}

type componentResult struct {
	status    Status
	best      []int8
	objective int64
	nodes     int64
	timedOut  bool
}

func (s *subproblem) solve(nodeLimit int64, deadline time.Time) componentResult {
	s.nodeLimit, s.deadline = nodeLimit, deadline
	// Root propagation catches constraints that force variables
	// outright (e.g. x <= 0).
	for ci := range s.cons {
		s.queued[ci] = true
		s.queue = append(s.queue, int32(ci))
	}
	if !s.propagate() {
		return componentResult{status: Infeasible, nodes: s.nodes}
	}
	limited := s.search(0)
	cr := componentResult{nodes: s.nodes, timedOut: s.timedOut}
	switch {
	case !s.hasBest && limited:
		cr.status = Unknown
	case !s.hasBest:
		cr.status = Infeasible
	default:
		cr.status = Optimal
		if limited {
			cr.status = Feasible
		}
		cr.best, cr.objective = s.best, s.bestObj
	}
	return cr
}

// set assigns var v to val and queues every constraint whose slack
// the assignment lowers. It returns false if one of them becomes
// unsatisfiable.
//
//sadplint:hotpath runs for every branching and forced assignment of the search
func (s *subproblem) set(v int32, val int8) bool {
	s.assign[v] = val
	s.trail = append(s.trail, v)
	if val == 1 {
		s.assignedObj += s.obj[v]
	}
	s.freeObj -= s.looseObj[v]
	ok := true
	for _, e := range s.varCons[v] {
		// Only the value that adds |coef| to the row's least activity
		// lowers its slack; the other leaves the row as it was.
		if (e.coef > 0) != (val == 1) {
			continue
		}
		s.slack[e.ci] -= abs64(e.coef)
		if s.slack[e.ci] < 0 {
			ok = false
		}
		if !s.queued[e.ci] {
			s.queued[e.ci] = true
			s.queue = append(s.queue, e.ci)
		}
	}
	return ok
}

// undoTo drops the propagation queue and rolls the trail back to
// length mark.
//
//sadplint:hotpath runs on every backtrack of the search
func (s *subproblem) undoTo(mark int) {
	for _, ci := range s.queue {
		s.queued[ci] = false
	}
	s.queue = s.queue[:0]
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		val := s.assign[v]
		for _, e := range s.varCons[v] {
			if (e.coef > 0) == (val == 1) {
				s.slack[e.ci] += abs64(e.coef)
			}
		}
		if val == 1 {
			s.assignedObj -= s.obj[v]
		}
		s.freeObj += s.looseObj[v]
		s.assign[v] = -1
	}
}

// propagate runs unit propagation over the queued constraints until
// the queue is empty. It returns false on conflict; assignments stay
// on the trail, and the queue stays, for the caller's undoTo.
//
//sadplint:hotpath runs at every node of the search
func (s *subproblem) propagate() bool {
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.queued[ci] = false
		if !s.propagateCons(ci) {
			return false
		}
	}
	return true
}

// propagateCons forces the unassigned variables of constraint ci that
// can take only one value. A forced value never lowers ci's own slack,
// so one pass reaches ci's fixpoint. It returns false on conflict.
//
//sadplint:hotpath runs for every queued constraint of every node
func (s *subproblem) propagateCons(ci int32) bool {
	slack := s.slack[ci]
	if slack < 0 {
		return false
	}
	c := &s.cons[ci]
	if slack >= c.maxAbs {
		return true
	}
	for _, t := range c.terms {
		if s.assign[t.v] != -1 {
			continue
		}
		switch {
		case t.coef > slack:
			if !s.set(t.v, 0) {
				return false
			}
		case -t.coef > slack:
			if !s.set(t.v, 1) {
				return false
			}
		}
	}
	return true
}

// bound returns an upper bound on the objective achievable from the
// current partial assignment: the assigned contribution plus, for
// unassigned positive-objective variables, either their packing-
// constraint slack allowance or their raw coefficient.
//
//sadplint:hotpath runs at every node that has an incumbent to beat
func (s *subproblem) bound() int64 {
	ub := s.assignedObj + s.freeObj
	for _, p := range s.packs {
		// All coefs are 1, so the slack counts the members that can
		// still be set; the best of them are first.
		room := s.slack[p.ci]
		for _, v := range p.members {
			if room <= 0 {
				break
			}
			if s.assign[v] == -1 {
				ub += s.obj[v]
				room--
			}
		}
	}
	return ub
}

// search explores the subtree of the current node by depth-first
// branch and bound. Every variable before order[pos] is assigned. It
// returns true when a limit was hit (the incumbent may nevertheless be
// optimal, but unproven).
func (s *subproblem) search(pos int) bool {
	s.nodes++
	if s.nodeLimit > 0 && s.nodes > s.nodeLimit {
		return true
	}
	//sadplint:ignore detclock TimeLimit is the opt-in wall-clock budget and a stop it causes is reported as Result.TimedOut; NodeLimit is the deterministic one
	if !s.deadline.IsZero() && s.nodes%1024 == 0 && time.Now().After(s.deadline) {
		s.timedOut = true
		return true
	}
	for pos < len(s.order) && s.assign[s.order[pos]] != -1 {
		pos++
	}
	if pos == len(s.order) {
		// Complete assignment; constraints hold by construction.
		if !s.hasBest || s.assignedObj > s.bestObj {
			s.hasBest = true
			s.bestObj = s.assignedObj
			s.best = append(s.best[:0], s.assign...)
		}
		return false
	}
	if s.hasBest && s.bound() <= s.bestObj {
		return false // cannot improve
	}
	v := s.order[pos]
	vals := [2]int8{1, 0}
	if s.obj[v] < 0 {
		vals = [2]int8{0, 1}
	}
	for _, val := range vals {
		mark := len(s.trail)
		limited := s.set(v, val) && s.propagate() && s.search(pos+1)
		s.undoTo(mark)
		if limited {
			return true
		}
	}
	return false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
