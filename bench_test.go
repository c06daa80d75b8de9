package sadproute

// Micro-benchmarks for the pieces the experiment index in DESIGN.md
// calls out: the router alone and the DVI heuristic alone here, the
// cost and ordering weights in ablation_bench_test.go. The paper's
// tables are printed by cmd/tables, and the whole flow is timed end to
// end and per layer by perfbench. Benchmarks route the first tiny
// circuit; set REPRO_BENCH_SCALE=N to route the first Table I circuit
// shrunk by factor N instead.

import (
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
)

func benchSuite() []bench.Circuit {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return bench.ScaledSuite(n)
		}
	}
	return bench.TinySuite()
}

func benchILPLimit() time.Duration {
	if s := os.Getenv("REPRO_BENCH_ILPTIME"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			return d
		}
	}
	return 15 * time.Second
}

// BenchmarkRoutingOnly measures the detailed router alone with full
// consideration, the "CPU" column driver of Tables III/IV.
func BenchmarkRoutingOnly(b *testing.B) {
	nl := bench.Generate(benchSuite()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Route(nl, Config{SADP: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Wirelength), "wirelength")
	}
}

// BenchmarkHeuristicDVIOnly isolates Algorithm 3 (the Tables VI/VII
// heuristic columns).
func BenchmarkHeuristicDVIOnly(b *testing.B) {
	nl := bench.Generate(benchSuite()[0])
	res, err := Route(nl, Config{SADP: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true})
	if err != nil {
		b.Fatal(err)
	}
	in := res.DVIInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := in.SolveHeuristic(dvi.DefaultHeurParams())
		b.ReportMetric(float64(s.DeadVias), "deadvias")
	}
}
