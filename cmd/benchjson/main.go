// Command benchjson runs the routing-only benchmark (the workload of
// BenchmarkRoutingOnly, extended to a whole suite) and records the
// result as JSON, so performance numbers accumulate as comparable
// artifacts instead of scrollback.
//
// Usage:
//
//	benchjson [-suite tiny|scaled|full|multipin] [-scale 4] [-label after]
//	          [-iters 3] [-out BENCH_1.json]
//	          [-baseline BENCH_1.json] [-tolerance 3]
//
// Without -out it writes the first free BENCH_<n>.json in the current
// directory. When -out names an existing file the new run is appended
// to its "runs" list — a before/after trajectory lives in one file.
//
// With -baseline the command is a regression gate: after measuring it
// compares against the baseline file's most recent run of the same
// suite. Wirelength and via counts must match exactly (routing is
// deterministic; a mismatch is a correctness regression, not noise)
// and the suite's total routing time must stay within -tolerance times
// the baseline, or the command exits non-zero. CI runs the tiny suite
// this way on every push.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"

	sadproute "repro"
)

// File is the on-disk BENCH_<n>.json document.
type File struct {
	Benchmark string `json:"benchmark"`
	Runs      []Run  `json:"runs"`
}

// Run is one measured pass over the suite.
type Run struct {
	Label     string `json:"label"`
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	Suite     string `json:"suite"`
	// Workers is the router parallelism of runs recorded before the
	// router became serial-only; new runs leave it out.
	Workers  int       `json:"workers,omitempty"`
	Iters    int       `json:"iters"`
	Circuits []Circuit `json:"circuits"`
	// TotalNsPerRoute sums the per-circuit minima: the suite's
	// routing-only ns/op.
	TotalNsPerRoute int64 `json:"total_ns_per_route"`
}

// Circuit is one circuit's result; NsPerRoute is the minimum over the
// run's iterations (the standard noise-resistant estimator).
type Circuit struct {
	Name       string `json:"name"`
	NsPerRoute int64  `json:"ns_per_route"`
	Wirelength int    `json:"wirelength"`
	Vias       int    `json:"vias"`
}

func main() {
	suiteFlag := flag.String("suite", "", "suite to run: tiny, scaled, full or multipin (default tiny, or REPRO_BENCH_SCALE)")
	scale := flag.Int("scale", 4, "shrink factor for -suite scaled")
	label := flag.String("label", "run", "label of this run (e.g. seed, after)")
	iters := flag.Int("iters", 3, "routing repetitions per circuit (minimum time is recorded)")
	out := flag.String("out", "", "output file (default: first free BENCH_<n>.json; in gate mode empty means no file)")
	baseline := flag.String("baseline", "", "gate mode: compare against this file's latest same-suite run")
	tolerance := flag.Float64("tolerance", 3, "gate mode: allowed slowdown factor vs the baseline")
	flag.Parse()

	suite, suiteName, err := pickSuite(*suiteFlag, *scale)
	if err != nil {
		fail(err)
	}
	run := Run{
		Label:     *label,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Suite:     suiteName,
		Iters:     *iters,
	}
	for _, c := range suite {
		nl := bench.Generate(c)
		var best time.Duration
		var wl, vias int
		for i := 0; i < *iters; i++ {
			start := time.Now()
			res, err := sadproute.Route(nl, sadproute.Config{
				SADP: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
			})
			if err != nil {
				fail(fmt.Errorf("routing %s: %w", c.Name, err))
			}
			if d := time.Since(start); i == 0 || d < best {
				best = d
			}
			wl, vias = res.Stats.Wirelength, res.Stats.Vias
		}
		run.Circuits = append(run.Circuits, Circuit{
			Name: c.Name, NsPerRoute: best.Nanoseconds(),
			Wirelength: wl, Vias: vias,
		})
		run.TotalNsPerRoute += best.Nanoseconds()
		fmt.Printf("%-8s %12d ns/route  WL %d  #Vias %d\n", c.Name, best.Nanoseconds(), wl, vias)
	}

	if *out != "" || *baseline == "" {
		if err := writeRun(*out, run); err != nil {
			fail(err)
		}
	}
	if *baseline != "" {
		if err := gate(*baseline, run, *tolerance); err != nil {
			fail(err)
		}
		fmt.Printf("gate ok: within %.1fx of baseline %s\n", *tolerance, *baseline)
	}
}

func pickSuite(name string, scale int) ([]bench.Circuit, string, error) {
	switch name {
	case "tiny":
		return bench.TinySuite(), "tiny", nil
	case "scaled":
		if scale < 1 {
			return nil, "", fmt.Errorf("-scale must be >= 1, got %d", scale)
		}
		return bench.ScaledSuite(scale), fmt.Sprintf("scaled/%d", scale), nil
	case "full":
		return bench.Suite(), "full", nil
	case "multipin":
		return bench.TinyMultiPinSuite(), "multipin", nil
	case "":
		// Back-compat: the env knob predates the -suite flag.
		if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 1 {
				return bench.ScaledSuite(n), fmt.Sprintf("scaled/%d", n), nil
			}
		}
		return bench.TinySuite(), "tiny", nil
	}
	return nil, "", fmt.Errorf("unknown -suite %q (want tiny, scaled, full or multipin)", name)
}

// writeRun appends the run to path (or the first free BENCH_<n>.json).
func writeRun(path string, run Run) error {
	doc := File{Benchmark: "RoutingOnly"}
	if path == "" {
		for n := 1; ; n++ {
			path = fmt.Sprintf("BENCH_%d.json", n)
			if _, err := os.Stat(path); os.IsNotExist(err) {
				break
			}
		}
	} else if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s: %w", path, err)
		}
	}
	doc.Runs = append(doc.Runs, run)
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs, total %d ns/route)\n", path, len(doc.Runs), run.TotalNsPerRoute)
	return nil
}

// gate compares the measured run against the most recent same-suite
// run in the baseline file. Metrics must be identical; time may drift
// up to the tolerance factor (CI machines are noisy — the gate exists
// to catch order-of-magnitude regressions, not percent-level ones).
func gate(path string, run Run, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	var base *Run
	for i := len(doc.Runs) - 1; i >= 0; i-- {
		if doc.Runs[i].Suite == run.Suite {
			base = &doc.Runs[i]
			break
		}
	}
	if base == nil {
		return fmt.Errorf("baseline %s has no run with suite=%s", path, run.Suite)
	}
	if len(base.Circuits) != len(run.Circuits) {
		return fmt.Errorf("baseline run has %d circuits, measured %d", len(base.Circuits), len(run.Circuits))
	}
	for i, b := range base.Circuits {
		c := run.Circuits[i]
		if c.Name != b.Name {
			return fmt.Errorf("circuit %d: baseline %s vs measured %s", i, b.Name, c.Name)
		}
		if c.Wirelength != b.Wirelength || c.Vias != b.Vias {
			return fmt.Errorf("%s: metrics diverged from baseline (wl %d vs %d, vias %d vs %d) — routing is deterministic, this is a correctness regression",
				c.Name, c.Wirelength, b.Wirelength, c.Vias, b.Vias)
		}
	}
	if limit := int64(float64(base.TotalNsPerRoute) * tolerance); run.TotalNsPerRoute > limit {
		return fmt.Errorf("suite took %d ns vs baseline %d ns — exceeds %.1fx tolerance",
			run.TotalNsPerRoute, base.TotalNsPerRoute, tolerance)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
