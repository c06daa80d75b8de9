// Package ilp holds 0-1 integer linear programs: a linear objective to
// maximize over binary variables, linear constraints, and the check
// that an assignment satisfies them. dvi.BuildILP states the paper's
// TPL-aware double via insertion ILP (§III-E) in it, the model the
// paper hands to Gurobi 6.5; internal/dvi solves that problem with its
// own exact search, and the tests hold each solution to this model.
package ilp

import (
	"cmp"
	"fmt"
	"slices"
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
