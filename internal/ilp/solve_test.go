package ilp

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// dviModel builds a random model with the row shapes dvi.BuildILP
// emits (the import would be circular, so the shapes are redrawn
// here). Per via: three color binaries and an uncolorable indicator
// with a large penalty; per redundant-via candidate: an insertion
// binary worth 1 and three color binaries. Rows: C1 packing over a
// via's insertions, C3 color equality, the C4 big-M pair tying a
// candidate's colors to its insertion, C2 pair packing over
// candidates of different vias on one site, and C5–C7 per-color pair
// packing over sites within pitch. Vias sit on a side×side grid, so
// side sets how far components grow. The second result is the
// all-uncolorable assignment, which is always feasible.
func dviModel(rng *rand.Rand, nVias, side int) (*Model, []int8) {
	const bigB, bigM = 1 << 20, 8
	type site struct {
		x, y, via int
		cand      bool
		d         int // insertion var of a candidate
		col       [3]int
	}
	m := NewModel()
	var sites []site
	var uncolorable []int
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for i := 0; i < nVias; i++ {
		x, y := rng.Intn(side), rng.Intn(side)
		col := [3]int{m.AddVar(0), m.AddVar(0), m.AddVar(0)}
		u := m.AddVar(-bigB)
		uncolorable = append(uncolorable, u)
		sites = append(sites, site{x: x, y: y, via: i, col: col})
		m.AddConstraint([]Term{{col[0], 1}, {col[1], 1}, {col[2], 1}, {u, 1}}, Eq, 1) // C3
		var c1 []Term
		for _, k := range rng.Perm(4)[:rng.Intn(4)] {
			d := m.AddVar(1)
			cd := [3]int{m.AddVar(0), m.AddVar(0), m.AddVar(0)}
			m.AddConstraint([]Term{{cd[0], 1}, {cd[1], 1}, {cd[2], 1}, {d, -bigM}}, Geq, 1-bigM) // C4
			m.AddConstraint([]Term{{cd[0], 1}, {cd[1], 1}, {cd[2], 1}, {d, -1}}, Leq, 0)
			sites = append(sites, site{x: x + dirs[k][0], y: y + dirs[k][1], via: i, cand: true, d: d, col: cd})
			c1 = append(c1, Term{d, 1})
		}
		if len(c1) > 0 {
			m.AddConstraint(c1, Leq, 1) // C1
		}
	}
	for a := range sites {
		for b := a + 1; b < len(sites); b++ {
			sa, sb := sites[a], sites[b]
			dx, dy := sa.x-sb.x, sa.y-sb.y
			if dx == 0 && dy == 0 && sa.cand && sb.cand && sa.via != sb.via {
				m.AddConstraint([]Term{{sa.d, 1}, {sb.d, 1}}, Leq, 1) // C2
			}
			if dx*dx+dy*dy <= 2 {
				for c := 0; c < 3; c++ {
					m.AddConstraint([]Term{{sa.col[c], 1}, {sb.col[c], 1}}, Leq, 1) // C5–C7
				}
			}
		}
	}
	warm := make([]int8, m.NumVars())
	for _, u := range uncolorable {
		warm[u] = 1
	}
	return m, warm
}

// fuzzBytes reads a fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// decodeModel turns fuzz bytes into a model of 1–12 variables and at
// most 10 constraints, plus a node limit for the second solve.
func decodeModel(data []byte) (*Model, int64) {
	b := fuzzBytes(data)
	m := NewModel()
	n := 1 + b.next()%12
	for i := 0; i < n; i++ {
		m.AddVar(int64(b.next()%11 - 4))
	}
	nc := b.next() % 11
	for c := 0; c < nc; c++ {
		mask := b.next() | b.next()<<8
		var terms []Term
		for v := 0; v < n; v++ {
			if mask>>v&1 == 1 {
				terms = append(terms, Term{v, int64(b.next()%7 - 3)})
			}
		}
		m.AddConstraint(terms, Sense(b.next()%3), int64(b.next()%6-2))
	}
	return m, int64(b.next() % 8)
}

// FuzzSolve holds the reference branch and bound to brute force: the
// unlimited solve finds the optimum or infeasibility, and a capped
// solve claims optimality only for the optimum and returns only
// feasible assignments.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, limit := decodeModel(data)
		want, best := bruteForce(m)
		for _, opts := range []Options{{}, {NodeLimit: limit}} {
			r := refSolve(m, opts)
			switch {
			case best == nil && r.Status != Infeasible && r.Status != Unknown:
				t.Fatalf("%+v: brute force finds no feasible assignment, refSolve says %v", opts, r.Status)
			case best != nil && opts.NodeLimit == 0 && (r.Status != Optimal || r.Objective != want):
				t.Fatalf("refSolve: %v objective %d, brute force optimum %d", r.Status, r.Objective, want)
			case r.Status == Optimal && r.Objective != want:
				t.Fatalf("%+v: claims optimum %d, brute force optimum %d", opts, r.Objective, want)
			case r.Status == Optimal || r.Status == Feasible:
				if err := m.Verify(r.X); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// The search allocates nothing per node: the trail and the queue are
// sized up front, the bound keeps no map and the branching order is
// precomputed. Solving a capped component for 4 000 nodes may cost
// only a constant more allocations than for 64.
func TestSolveAllocsFlatInNodes(t *testing.T) {
	m, warm := dviModel(rand.New(rand.NewSource(3)), 40, 5)
	allocs := func(limit int64) float64 {
		opts := Options{NodeLimit: limit, WarmStart: warm}
		if r := refSolve(m, opts); r.Status != Feasible {
			t.Fatalf("node limit %d: status %v, want a capped (feasible) solve", limit, r.Status)
		}
		return testing.AllocsPerRun(5, func() { refSolve(m, opts) })
	}
	small, large := allocs(64), allocs(4000)
	t.Logf("%.0f allocations at 64 nodes, %.0f at 4 000", small, large)
	if large > small+2 {
		t.Fatalf("refSolve allocates %.0f times at 4 000 nodes, %.0f at 64: the search allocates per node", large, small)
	}
}

// A wall-clock stop is reported; a node-limit stop, the deterministic
// budget, is not.
func TestTimedOutOnlyOnDeadline(t *testing.T) {
	m, warm := dviModel(rand.New(rand.NewSource(3)), 40, 5)
	if r := refSolve(m, Options{NodeLimit: 4000, WarmStart: warm, TimeLimit: time.Hour}); r.Status != Feasible || r.TimedOut {
		t.Fatalf("node-capped solve: status %v, TimedOut %v; want feasible, not timed out", r.Status, r.TimedOut)
	}
	if r := refSolve(m, Options{WarmStart: warm, TimeLimit: time.Nanosecond}); r.Status != Feasible || !r.TimedOut {
		t.Fatalf("deadline-stopped solve: status %v, TimedOut %v; want feasible, timed out", r.Status, r.TimedOut)
	}
}

// AddConstraint stores terms ordered by variable with duplicates
// merged, so the stored model does not depend on the caller's order.
func TestAddConstraintOrdersTerms(t *testing.T) {
	m := NewModel()
	for i := 0; i < 4; i++ {
		m.AddVar(1)
	}
	m.AddConstraint([]Term{{3, 1}, {0, 2}, {2, 1}, {0, -2}, {3, 4}, {1, 0}}, Geq, 1)
	want := []Term{{2, -1}, {3, -5}}
	if got := m.cons[0].terms; !reflect.DeepEqual(got, want) || m.cons[0].rhs != -1 {
		t.Fatalf("terms %v rhs %d, want %v rhs -1", got, m.cons[0].rhs, want)
	}
}
