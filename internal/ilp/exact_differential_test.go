package ilp_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/ilp"
)

// TestExactSearchMatchesGenericSolver holds internal/dvi's exact search
// to the generic branch and bound it replaced, both at the goldens'
// node cap, on the DVI instance of each golden run and of the same
// circuits routed without TPL awareness, whose forbidden via patterns
// leave vias uncolorable: the exact solution satisfies the model,
// scores no lower in all, and scores the same on every component the
// generic solver proves optimal.
func TestExactSearchMatchesGenericSolver(t *testing.T) {
	circuits := append(bench.TinySuite(), bench.TinyMultiPinSuite()...)
	proven, uncolorable := 0, 0
	for _, c := range circuits {
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			for _, tplAware := range []bool{true, false} {
				name := fmt.Sprintf("%s/%v/TPL %v", c.Name, scheme, tplAware)
				spec := bench.RunSpec{Scheme: scheme, ConsiderDVI: true, ConsiderTPL: tplAware, Method: bench.HeurDVI}
				_, art, err := bench.Run(bench.Generate(c), spec)
				if err != nil {
					t.Fatal(err)
				}
				in := art.Instance
				m, vars := in.BuildILP()
				warm := vars.Assignment(in.SolveHeuristic(dvi.DefaultHeurParams()))
				ref := ilp.RefSolve(m, ilp.Options{NodeLimit: bench.DeterministicILPNodeLimit, WarmStart: warm})
				s, err := in.SolveILP(dvi.ILPOptions{NodeLimit: bench.DeterministicILPNodeLimit})
				if err != nil {
					t.Fatal(err)
				}
				x := vars.Assignment(s)
				if err := m.Verify(x); err != nil {
					t.Fatalf("%s: the model rejects the exact solution: %v", name, err)
				}
				if got := m.ObjectiveOf(x); got < ref.Objective {
					t.Errorf("%s: exact objective %d below the generic solver's %d", name, got, ref.Objective)
				}
				for _, vs := range ref.Proven {
					if got, want := partObjective(m, x, vs), partObjective(m, ref.X, vs); got != want {
						t.Errorf("%s: component of %d variables scores %d, proven optimum %d", name, len(vs), got, want)
					}
				}
				proven += len(ref.Proven)
				uncolorable += s.Uncolorable
			}
		}
	}
	if uncolorable == 0 {
		t.Error("no uncolorable via in any instance; the uncolored branches go unchecked")
	}
	t.Logf("%d components proven by the generic solver, %d uncolorable vias", proven, uncolorable)
}

// partObjective is the objective of x restricted to the variables vs.
func partObjective(m *ilp.Model, x []int8, vs []int) int64 {
	part := make([]int8, len(x))
	for _, v := range vs {
		part[v] = x[v]
	}
	return m.ObjectiveOf(part)
}
