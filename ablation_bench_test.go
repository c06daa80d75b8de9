package sadproute

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the individual cost-assignment weights (α for BDC, β for CDC, γ for
// TPLC, the constant AMC) and the DVI-ordering weights of Algorithm 3.
// Each benchmark reports dead-via counts so the effect of a knob is
// visible directly in the -bench output.

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/router"
)

// ablationRun routes the first suite circuit with the given params and
// returns the ILP dead-via count (the paper's comparison currency). The
// solve is capped in nodes, not wall clock, so the deadvias-* metrics
// are the same on every machine.
func ablationRun(b *testing.B, p router.Params) (dv int) {
	b.Helper()
	nl := bench.Generate(benchSuite()[0])
	row, _, err := bench.Run(nl, bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Params: p, Method: bench.ILPDVI, ILPNodeLimit: bench.DeterministicILPNodeLimit,
	})
	if err != nil {
		b.Fatal(err)
	}
	return row.DV
}

// BenchmarkAblationAlpha sweeps the block-DVIC weight α: zeroing it
// removes the protection of already-routed vias' DVI candidates.
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := router.DefaultParams()
		off.Alpha = 0
		on := router.DefaultParams()
		b.ReportMetric(float64(ablationRun(b, off)), "deadvias-alpha0")
		b.ReportMetric(float64(ablationRun(b, on)), "deadvias-alpha8")
	}
}

// BenchmarkAblationBeta sweeps the conflict-DVIC weight β.
func BenchmarkAblationBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := router.DefaultParams()
		off.Beta = 0
		on := router.DefaultParams()
		b.ReportMetric(float64(ablationRun(b, off)), "deadvias-beta0")
		b.ReportMetric(float64(ablationRun(b, on)), "deadvias-beta4")
	}
}

// BenchmarkAblationGamma compares TPLC on/off while keeping the hard
// FVP-removal phase: γ=0 leaves all spreading to rip-up-and-reroute,
// which costs iterations.
func BenchmarkAblationGamma(b *testing.B) {
	nl := bench.Generate(benchSuite()[0])
	for i := 0; i < b.N; i++ {
		for _, gamma := range []int64{0, 4} {
			p := router.DefaultParams()
			p.Gamma = gamma
			start := time.Now()
			row, art, err := bench.Run(nl, bench.RunSpec{
				Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
				Params: p, Method: bench.NoDVI,
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = row
			st := art.Router.Stats()
			if gamma == 0 {
				b.ReportMetric(float64(st.FVPsResolved), "fvprr-gamma0")
			} else {
				b.ReportMetric(float64(st.FVPsResolved), "fvprr-gamma4")
			}
			_ = start
		}
	}
}

// BenchmarkAblationDVIOrdering compares Algorithm 3 with the paper's
// penalty ordering against a degenerate all-zero ordering (arbitrary
// insertion order).
func BenchmarkAblationDVIOrdering(b *testing.B) {
	nl := bench.Generate(benchSuite()[0])
	res, err := Route(nl, Config{SADP: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true})
	if err != nil {
		b.Fatal(err)
	}
	in := res.DVIInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ordered := in.SolveHeuristic(dvi.DefaultHeurParams())
		arbitrary := in.SolveHeuristic(dvi.HeurParams{})
		b.ReportMetric(float64(ordered.DeadVias), "deadvias-ordered")
		b.ReportMetric(float64(arbitrary.DeadVias), "deadvias-arbitrary")
	}
}
