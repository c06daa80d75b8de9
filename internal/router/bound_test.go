package router_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/router"
)

// TestBoundConsistentOnGoldenSuites routes the golden suites under
// both SADP schemes, every phase included, with the search asserting
// h(u) ≤ c(u,v) + h(v) on every relaxed edge and h = 0 at every goal
// it pops.
func TestBoundConsistentOnGoldenSuites(t *testing.T) {
	defer router.SetBoundCheck()()
	for _, c := range append(bench.TinySuite(), bench.TinyMultiPinSuite()...) {
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			spec := bench.RunSpec{Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.NoDVI}
			if _, _, err := bench.Run(bench.Generate(c), spec); err != nil {
				t.Fatalf("%s/%v: %v", c.Name, scheme, err)
			}
		}
	}
}
