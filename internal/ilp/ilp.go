// Package ilp is a self-contained 0-1 integer linear program solver.
//
// It substitutes for the Gurobi 6.5 solver the paper calls to solve the
// TPL-aware double via insertion ILP (§III-E). The solver maximizes a
// linear objective over binary variables subject to linear constraints,
// by branch and bound with constraint propagation. Independent
// subproblems are found by connected-component decomposition of the
// variable/constraint incidence graph and solved separately — the DVI
// instances decompose into many small clusters of mutually-interacting
// vias, which is what makes exact solving tractable without an LP
// relaxation.
//
// The bound combines the trivial objective bound with packing
// constraints (sum of binaries ≤ k), which the DVI formulation is full
// of (C1, C2, C5–C7 after big-M substitution).
package ilp

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Sense is the comparison sense of a constraint.
type Sense uint8

const (
	// Leq is Σ aᵢxᵢ ≤ b.
	Leq Sense = iota
	// Geq is Σ aᵢxᵢ ≥ b.
	Geq
	// Eq is Σ aᵢxᵢ = b.
	Eq
)

func (s Sense) String() string {
	switch s {
	case Leq:
		return "<="
	case Geq:
		return ">="
	case Eq:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", uint8(s))
}

// Term is one coefficient–variable product.
type Term struct {
	Var  int
	Coef int64
}

// Model is a 0-1 ILP: maximize Obj·x subject to the constraints, with
// every variable binary.
type Model struct {
	obj  []int64
	cons []constraint
}

type constraint struct {
	terms []Term
	rhs   int64 // normalized to Σ a x <= rhs
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a binary variable with the given objective coefficient
// (maximization) and returns its index.
func (m *Model) AddVar(objCoef int64) int {
	m.obj = append(m.obj, objCoef)
	return len(m.obj) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstraints returns the number of normalized (≤) constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddConstraint adds Σ terms sense rhs. Equality constraints are
// stored as a pair of inequalities. Terms referencing the same
// variable twice are merged, and the stored terms are ordered by
// variable index. Out-of-range variable indices panic.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs int64) {
	norm := slices.Clone(terms)
	for _, t := range norm {
		if t.Var < 0 || t.Var >= len(m.obj) {
			panic(fmt.Sprintf("ilp: constraint references unknown var %d", t.Var))
		}
	}
	slices.SortFunc(norm, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	merged := norm[:0]
	for i := 0; i < len(norm); {
		t := norm[i]
		for i++; i < len(norm) && norm[i].Var == t.Var; i++ {
			t.Coef += norm[i].Coef
		}
		if t.Coef != 0 {
			merged = append(merged, t)
		}
	}
	switch sense {
	case Leq:
		m.cons = append(m.cons, constraint{terms: merged, rhs: rhs})
	case Geq:
		for i := range merged {
			merged[i].Coef = -merged[i].Coef
		}
		m.cons = append(m.cons, constraint{terms: merged, rhs: -rhs})
	case Eq:
		geq := make([]Term, len(merged))
		for i, t := range merged {
			geq[i] = Term{Var: t.Var, Coef: -t.Coef}
		}
		m.cons = append(m.cons, constraint{terms: merged, rhs: rhs}, constraint{terms: geq, rhs: -rhs})
	default:
		panic(fmt.Sprintf("ilp: bad sense %v", sense))
	}
}

// Status reports the outcome of Solve.
type Status uint8

const (
	// Optimal: the returned assignment is proven optimal.
	Optimal Status = iota
	// Feasible: a feasible assignment was found but optimality was not
	// proven within the limits.
	Feasible
	// Infeasible: the model has no feasible assignment.
	Infeasible
	// Unknown: limits were hit before any feasible assignment was
	// found.
	Unknown
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Options bound the solve effort.
type Options struct {
	// TimeLimit caps wall-clock time; zero means no limit. The clock
	// is read every 1 024 nodes of a component, and a stop it causes
	// sets Result.TimedOut.
	TimeLimit time.Duration
	// NodeLimit caps branch-and-bound nodes per component; zero means
	// no limit. Unlike TimeLimit it is deterministic.
	NodeLimit int64
	// WarmStart optionally seeds the search with a known feasible
	// assignment (e.g. from a heuristic): it becomes the initial
	// incumbent of every component, guaranteeing a Feasible result at
	// worst and pruning the search. An infeasible warm start is
	// ignored.
	WarmStart []int8
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	Objective int64
	// X is the variable assignment (0/1); valid when Status is Optimal
	// or Feasible.
	X []int8
	// Nodes is the total number of branch-and-bound nodes explored.
	Nodes int64
	// Components is the number of independent subproblems solved.
	Components int
	// TimedOut is set when Options.TimeLimit, rather than the node
	// limit, stopped the search of some component. Such a result
	// depends on the machine's speed; without it, the same model and
	// node limit always give the same Result.
	TimedOut bool
}

// Verify checks that x satisfies every constraint of the model.
func (m *Model) Verify(x []int8) error {
	if len(x) != len(m.obj) {
		return fmt.Errorf("ilp: assignment length %d != %d vars", len(x), len(m.obj))
	}
	for i, v := range x {
		if v != 0 && v != 1 {
			return fmt.Errorf("ilp: var %d non-binary value %d", i, v)
		}
	}
	for ci, c := range m.cons {
		var sum int64
		for _, t := range c.terms {
			sum += t.Coef * int64(x[t.Var])
		}
		if sum > c.rhs {
			return fmt.Errorf("ilp: constraint %d violated: %d > %d", ci, sum, c.rhs)
		}
	}
	return nil
}

// ObjectiveOf returns Obj·x.
func (m *Model) ObjectiveOf(x []int8) int64 {
	var sum int64
	for i, v := range x {
		sum += m.obj[i] * int64(v)
	}
	return sum
}
