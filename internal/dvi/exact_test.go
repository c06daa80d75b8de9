package dvi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/tpl"
)

// refSolveExhaustive returns the optimum of the instance's ILP by
// trying every assignment: each via's original takes a mask or none,
// and its redundant via a candidate and a mask, or no candidate.
// BuildILP's model judges each one, so none of the exact search's
// conflict logic takes part.
func refSolveExhaustive(in *Instance) int64 {
	m, vars := in.BuildILP()
	n := len(in.Vias)
	s := &Solution{Inserted: make([]int, n), Colors: make([]int8, n), RedColors: make([]int8, n)}
	best := int64(math.MinInt64)
	var try func(i int)
	try = func(i int) {
		if i == n {
			if x := vars.Assignment(s); m.Verify(x) == nil {
				best = max(best, m.ObjectiveOf(x))
			}
			return
		}
		for c := tpl.Uncolored; c < tpl.NumColors; c++ {
			s.Colors[i], s.Inserted[i], s.RedColors[i] = c, -1, tpl.Uncolored
			try(i + 1)
			for j := range in.Feas[i] {
				for rc := int8(0); rc < tpl.NumColors; rc++ {
					s.Inserted[i], s.RedColors[i] = j, rc
					try(i + 1)
				}
			}
		}
	}
	try(0)
	return best
}

// exhaustiveSpace is the number of assignments refSolveExhaustive
// tries on the instance.
func exhaustiveSpace(in *Instance) int {
	space := 1
	for _, f := range in.Feas {
		space *= 4 * (1 + 3*len(f))
	}
	return space
}

// decodeInstance turns fuzz bytes into a small hand-built instance on
// an 8×8 grid: vias on distinct sites of its inner 6×6 patch on one of
// two via layers, each with some of its four DVIC sites as candidates,
// none on a via's site, as NewInstance's feasibility check guarantees.
// Vias join while the exhaustive solver's space stays within 1<<14
// assignments.
func decodeInstance(data []byte) *Instance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	type raw struct {
		at   geom.Pt3
		mask int
	}
	var vias []raw
	taken := map[geom.Pt3]bool{}
	for n := 1 + next()%7; len(vias) < n; {
		p := geom.XYL(1+next()%6, 1+next()%6, next()%2)
		mask := next()
		if len(data) == 0 && taken[p] {
			break
		}
		if !taken[p] {
			taken[p] = true
			vias = append(vias, raw{p, mask})
		}
	}
	in := &Instance{G: grid.New(8, 8, 3, coloring.Scheme{Type: coloring.SIM})}
	space := 1
	for i, r := range vias {
		var feas []geom.Pt
		for k, off := range DVICOffsets {
			c := r.at.Pt2().Add(off.X, off.Y)
			if r.mask>>k&1 == 1 && !taken[geom.XYL(c.X, c.Y, r.at.Layer)] {
				feas = append(feas, c)
			}
		}
		if space*4*(1+3*len(feas)) > 1<<14 {
			break
		}
		space *= 4 * (1 + 3*len(feas))
		in.Vias = append(in.Vias, Via{Net: int32(i), Base: r.at})
		in.Feas = append(in.Feas, feas)
	}
	return in
}

// exactFuzzSeeds are FuzzExact's seed inputs: an empty instance, a lone
// via, a dense cluster whose candidates collide and crowd the masks, a
// row of vias that the search splits into independent groups, vias on
// two layers, and four originals pairwise within pitch, one of which
// must stay uncolored: leaving (1,2) uncolored frees (2,3)'s walled
// candidate (3,3), so the bound may skip walled candidates only while
// every decided original is colored.
var exactFuzzSeeds = [][]byte{
	{},
	{0, 2, 2, 0, 15},
	{5, 1, 1, 0, 15, 2, 1, 0, 15, 1, 2, 0, 15, 2, 2, 0, 15, 3, 1, 0, 3, 1, 3, 0, 12},
	{6, 0, 2, 0, 15, 1, 2, 0, 1, 2, 2, 0, 15, 3, 2, 0, 2, 4, 2, 0, 15, 5, 2, 0, 3},
	{4, 1, 1, 0, 9, 2, 2, 0, 6, 1, 1, 1, 15, 3, 3, 1, 15},
	[]byte("01008120101"),
}

// checkExact holds SolveILP on the instance to its optimum want, with
// no node cap and with small ones: every solution passes Validate and
// the model, scores between the heuristic's warm start and want, and
// reaches want unless a cap stopped the search.
func checkExact(t *testing.T, name string, in *Instance, want int64) {
	t.Helper()
	m, vars := in.BuildILP()
	heur := m.ObjectiveOf(vars.Assignment(in.SolveHeuristic(DefaultHeurParams())))
	for _, limit := range []int64{0, 1, 7} {
		s, err := in.SolveILP(ILPOptions{NodeLimit: limit})
		if err != nil {
			t.Fatalf("%s, cap %d: %v", name, limit, err)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("%s, cap %d: %v", name, limit, err)
		}
		x := vars.Assignment(s)
		if err := m.Verify(x); err != nil {
			t.Fatalf("%s, cap %d: the model rejects the solution: %v", name, limit, err)
		}
		got := m.ObjectiveOf(x)
		switch {
		case got != int64(s.InsertedCount)-bigB*int64(s.Uncolorable):
			t.Fatalf("%s, cap %d: objective %d disagrees with the stats %+v", name, limit, got, s)
		case got > want || got < heur:
			t.Fatalf("%s, cap %d: objective %d outside [heuristic %d, optimum %d]", name, limit, got, heur, want)
		case limit == 0 && s.LimitHit:
			t.Fatalf("%s: uncapped search reports a limit hit", name)
		case !s.LimitHit && got != want:
			t.Fatalf("%s, cap %d: claims proof at %d, optimum %d", name, limit, got, want)
		}
	}
}

// FuzzExact holds the exact search to the exhaustive solver on small
// hand-built instances.
func FuzzExact(f *testing.F) {
	for _, seed := range exactFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeInstance(data)
		checkExact(t, "fuzz", in, refSolveExhaustive(in))
	})
}

// TestExactUncoloredOriginalLiftsWalls holds the search to the
// exhaustive optimum on two instances where an original that must stay
// uncolored frees candidates that two originals wall in. Both are past
// decodeInstance's size, so they are built here.
//
// In "uncolored branch", the originals hold two four-cliques, {V, C,
// D, E2} and {V, C, E1, E2}. E1's only candidate is walled by V and C,
// E2's by V and D. Leaving C or E2 uncolored frees one candidate;
// leaving V uncolored frees both, so the optimum leaves V uncolored and
// inserts twice. A search that bounds V's uncolored branch with the
// walls through V kept claims one insertion optimal.
//
// In "no color left", the originals A, B, C and D are pairwise within
// pitch, and E is beside A and D. A's candidate is walled by B and D,
// C's by B and D, and B's is free. Once A, B and C take the three
// masks, D has none left; leaving it uncolored frees both walled
// candidates, and the optimum inserts three times. A bound that keeps
// walls through an original with no color left claims two insertions
// optimal.
func TestExactUncoloredOriginalLiftsWalls(t *testing.T) {
	type via struct {
		at   geom.Pt
		feas []geom.Pt
	}
	for _, tc := range []struct {
		name   string
		vias   []via
		insert int64
	}{
		{"uncolored branch", []via{
			{geom.XY(2, 2), nil},                     // V
			{geom.XY(3, 2), nil},                     // C
			{geom.XY(3, 4), nil},                     // D
			{geom.XY(2, 1), []geom.Pt{{X: 2, Y: 0}}}, // E1
			{geom.XY(1, 3), []geom.Pt{{X: 1, Y: 4}}}, // E2
		}, 2},
		{"no color left", []via{
			{geom.XY(6, 4), []geom.Pt{{X: 7, Y: 4}}}, // A
			{geom.XY(6, 2), []geom.Pt{{X: 6, Y: 1}}}, // B
			{geom.XY(4, 3), []geom.Pt{{X: 4, Y: 2}}}, // C
			{geom.XY(5, 4), nil},                     // D
			{geom.XY(6, 5), nil},                     // E
		}, 3},
	} {
		in := &Instance{G: grid.New(9, 9, 3, coloring.Scheme{Type: coloring.SIM})}
		for i, v := range tc.vias {
			in.Vias = append(in.Vias, Via{Net: int32(i), Base: geom.XYL(v.at.X, v.at.Y, 0)})
			in.Feas = append(in.Feas, v.feas)
		}
		want := refSolveExhaustive(in)
		if want != tc.insert-bigB {
			t.Fatalf("%s: exhaustive optimum %d, want %d", tc.name, want, tc.insert-bigB)
		}
		checkExact(t, tc.name, in, want)
	}
}

// TestExactMatchesExhaustiveRandom runs FuzzExact's check on random
// inputs, so go test covers more than the seeds.
func TestExactMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials, spaces := 400, 0
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 40)
		rng.Read(data)
		in := decodeInstance(data)
		spaces += exhaustiveSpace(in)
		checkExact(t, "random", in, refSolveExhaustive(in))
	}
	t.Logf("%d instances, %d assignments tried", trials, spaces)
}
