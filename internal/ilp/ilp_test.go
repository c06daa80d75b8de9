package ilp

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestTrivialUnconstrained(t *testing.T) {
	m := NewModel()
	a := m.AddVar(3)
	b := m.AddVar(-2)
	r := refSolve(m, Options{})
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.Objective != 3 || r.X[a] != 1 || r.X[b] != 0 {
		t.Errorf("got obj %d x=%v", r.Objective, r.X)
	}
	if r.Components != 2 {
		t.Errorf("Components = %d, want 2", r.Components)
	}
}

func TestSimplePacking(t *testing.T) {
	// max x+y+z s.t. x+y <= 1, y+z <= 1 → optimum 2 (x=z=1).
	m := NewModel()
	x := m.AddVar(1)
	y := m.AddVar(1)
	z := m.AddVar(1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, Leq, 1)
	m.AddConstraint([]Term{{y, 1}, {z, 1}}, Leq, 1)
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.Objective != 2 {
		t.Fatalf("status %v obj %d", r.Status, r.Objective)
	}
	if r.X[x] != 1 || r.X[y] != 0 || r.X[z] != 1 {
		t.Errorf("x=%v", r.X)
	}
	if err := m.Verify(r.X); err != nil {
		t.Error(err)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// max -x-y-z s.t. x+y+z = 1 → exactly one var set, obj -1.
	m := NewModel()
	vars := []int{m.AddVar(-1), m.AddVar(-1), m.AddVar(-1)}
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{v, 1}
	}
	m.AddConstraint(terms, Eq, 1)
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.Objective != -1 {
		t.Fatalf("status %v obj %d", r.Status, r.Objective)
	}
	sum := int8(0)
	for _, v := range vars {
		sum += r.X[v]
	}
	if sum != 1 {
		t.Errorf("equality violated: %v", r.X)
	}
}

func TestGeqConstraint(t *testing.T) {
	// max -x-y s.t. x+y >= 1 → obj -1.
	m := NewModel()
	x := m.AddVar(-1)
	y := m.AddVar(-1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, Geq, 1)
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.Objective != -1 {
		t.Fatalf("status %v obj %d x=%v", r.Status, r.Objective, r.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 1 and x <= 0.
	m := NewModel()
	x := m.AddVar(1)
	m.AddConstraint([]Term{{x, 1}}, Geq, 1)
	m.AddConstraint([]Term{{x, 1}}, Leq, 0)
	r := refSolve(m, Options{})
	if r.Status != Infeasible {
		t.Fatalf("status %v", r.Status)
	}
}

func TestInfeasibleMultiVar(t *testing.T) {
	// x+y >= 2, x+y <= 1.
	m := NewModel()
	x := m.AddVar(0)
	y := m.AddVar(0)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, Geq, 2)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, Leq, 1)
	if r := refSolve(m, Options{}); r.Status != Infeasible {
		t.Fatalf("status %v", r.Status)
	}
}

func TestBigMConditional(t *testing.T) {
	// The C4-style conditional of the paper: colors sum to 1 iff D=1.
	// max D; oD+gD+bD - B(D-1) >= 1 and oD+gD+bD + B(D-1) <= 1.
	const B = 1000
	m := NewModel()
	D := m.AddVar(1)
	oD := m.AddVar(0)
	gD := m.AddVar(0)
	bD := m.AddVar(0)
	m.AddConstraint([]Term{{oD, 1}, {gD, 1}, {bD, 1}, {D, -B}}, Geq, 1-B)
	m.AddConstraint([]Term{{oD, 1}, {gD, 1}, {bD, 1}, {D, B}}, Leq, 1+B)
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.Objective != 1 {
		t.Fatalf("status %v obj %d", r.Status, r.Objective)
	}
	if r.X[D] != 1 {
		t.Fatal("D not set")
	}
	if r.X[oD]+r.X[gD]+r.X[bD] != 1 {
		t.Errorf("conditional not enforced: %v", r.X)
	}
}

func TestNegativeCoefficients(t *testing.T) {
	// max x s.t. x - y <= 0 → x can be 1 only with y=1; y free.
	m := NewModel()
	x := m.AddVar(5)
	y := m.AddVar(-1)
	m.AddConstraint([]Term{{x, 1}, {y, -1}}, Leq, 0)
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.Objective != 4 {
		t.Fatalf("obj %d status %v x=%v", r.Objective, r.Status, r.X)
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	// x + x <= 1 means 2x <= 1 → x = 0.
	m := NewModel()
	x := m.AddVar(1)
	m.AddConstraint([]Term{{x, 1}, {x, 1}}, Leq, 1)
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.X[x] != 0 {
		t.Fatalf("merged duplicate terms handled wrong: %v %v", r.Status, r.X)
	}
}

func TestAddConstraintUnknownVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown var accepted")
		}
	}()
	NewModel().AddConstraint([]Term{{0, 1}}, Leq, 1)
}

func TestVerify(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1)
	y := m.AddVar(1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, Leq, 1)
	if err := m.Verify([]int8{1, 1}); err == nil {
		t.Error("violated assignment accepted")
	}
	if err := m.Verify([]int8{1}); err == nil {
		t.Error("short assignment accepted")
	}
	if err := m.Verify([]int8{2, 0}); err == nil {
		t.Error("non-binary value accepted")
	}
	if err := m.Verify([]int8{1, 0}); err != nil {
		t.Errorf("feasible assignment rejected: %v", err)
	}
	if m.ObjectiveOf([]int8{1, 0}) != 1 {
		t.Error("ObjectiveOf wrong")
	}
}

// bruteForce enumerates all 2^n assignments. It returns the best
// objective and one assignment reaching it, or a nil assignment when
// none is feasible.
func bruteForce(m *Model) (bestObj int64, best []int8) {
	n := m.NumVars()
	x := make([]int8, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = int8(mask >> i & 1)
		}
		if m.Verify(x) != nil {
			continue
		}
		if obj := m.ObjectiveOf(x); best == nil || obj > bestObj {
			bestObj, best = obj, slices.Clone(x)
		}
	}
	return bestObj, best
}

// randomModel draws a model of 2–10 variables and up to 7 constraints
// of every sense, with small mixed-sign coefficients.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 2 + rng.Intn(9) // up to 10 vars
	for i := 0; i < n; i++ {
		m.AddVar(int64(rng.Intn(11) - 3))
	}
	nc := rng.Intn(8)
	for c := 0; c < nc; c++ {
		var terms []Term
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{v, int64(rng.Intn(5) - 2)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := Sense(rng.Intn(3))
		rhs := int64(rng.Intn(5) - 1)
		m.AddConstraint(terms, sense, rhs)
	}
	return m
}

// Randomized cross-validation against exhaustive enumeration.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		want, best := bruteForce(m)
		r := refSolve(m, Options{})
		if best == nil {
			if r.Status != Infeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj %d", trial, r.Status, r.Objective)
			}
			continue
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		if r.Objective != want {
			t.Fatalf("trial %d: objective %d, brute force %d", trial, r.Objective, want)
		}
		if err := m.Verify(r.X); err != nil {
			t.Fatalf("trial %d: infeasible optimum: %v", trial, err)
		}
		if m.ObjectiveOf(r.X) != r.Objective {
			t.Fatalf("trial %d: reported objective mismatch", trial)
		}
	}
}

// Maximum independent set on a path of k vertices has size ceil(k/2).
func TestIndependentSetPath(t *testing.T) {
	for k := 1; k <= 12; k++ {
		m := NewModel()
		vars := make([]int, k)
		for i := range vars {
			vars[i] = m.AddVar(1)
		}
		for i := 1; i < k; i++ {
			m.AddConstraint([]Term{{vars[i-1], 1}, {vars[i], 1}}, Leq, 1)
		}
		r := refSolve(m, Options{})
		want := int64((k + 1) / 2)
		if r.Status != Optimal || r.Objective != want {
			t.Errorf("path %d: obj %d want %d (status %v)", k, r.Objective, want, r.Status)
		}
	}
}

func TestComponentDecomposition(t *testing.T) {
	// Two independent triangles; each contributes 1 to a max
	// independent set.
	m := NewModel()
	mk := func() {
		a, b, c := m.AddVar(1), m.AddVar(1), m.AddVar(1)
		m.AddConstraint([]Term{{a, 1}, {b, 1}}, Leq, 1)
		m.AddConstraint([]Term{{b, 1}, {c, 1}}, Leq, 1)
		m.AddConstraint([]Term{{a, 1}, {c, 1}}, Leq, 1)
	}
	mk()
	mk()
	r := refSolve(m, Options{})
	if r.Status != Optimal || r.Objective != 2 {
		t.Fatalf("obj %d status %v", r.Objective, r.Status)
	}
	if r.Components != 2 {
		t.Errorf("Components = %d, want 2", r.Components)
	}
}

func TestNodeLimit(t *testing.T) {
	// A 3-coloring-like instance large enough to exceed one node.
	m := NewModel()
	n := 30
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddVar(1)
	}
	for i := 1; i < n; i++ {
		m.AddConstraint([]Term{{vars[i-1], 1}, {vars[i], 1}}, Leq, 1)
	}
	r := refSolve(m, Options{NodeLimit: 3})
	if r.Status == Optimal {
		// Fine if it proved optimality within the limit, but with 3
		// nodes on 30 vars it must not claim an incumbent it lacks.
		if err := m.Verify(r.X); err != nil {
			t.Fatalf("claimed optimal with invalid X: %v", err)
		}
	}
	if r.Status == Feasible {
		if err := m.Verify(r.X); err != nil {
			t.Fatalf("feasible status with invalid X: %v", err)
		}
	}
}

func TestTimeLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel()
	n := 60
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddVar(int64(1 + rng.Intn(3)))
	}
	for c := 0; c < 260; c++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			m.AddConstraint([]Term{{vars[a], 1}, {vars[b], 1}}, Leq, 1)
		}
	}
	start := time.Now()
	refSolve(m, Options{TimeLimit: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("time limit ignored: took %v", elapsed)
	}
}

func TestStringers(t *testing.T) {
	if Leq.String() != "<=" || Geq.String() != ">=" || Eq.String() != "==" {
		t.Error("Sense strings wrong")
	}
	for _, s := range []Status{Optimal, Feasible, Infeasible, Unknown} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	if Sense(9).String() == "" || Status(9).String() == "" {
		t.Error("out-of-range stringers empty")
	}
}

func BenchmarkSolveIndependentSet(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := NewModel()
	n := 200
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddVar(1)
	}
	for c := 0; c < 300; c++ {
		x, y := rng.Intn(n), rng.Intn(n)
		if x != y {
			m.AddConstraint([]Term{{vars[x], 1}, {vars[y], 1}}, Leq, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refSolve(m, Options{TimeLimit: 2 * time.Second})
		if r.Status == Unknown || r.Status == Infeasible {
			b.Fatalf("status %v", r.Status)
		}
	}
}
