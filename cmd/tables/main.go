// Command tables regenerates the paper's evaluation tables (I–VII)
// end to end on the synthetic benchmark suite.
//
// Usage:
//
//	tables [-table all|1|2|3|4|5|6|7] [-scale N] [-circuits N] [-ilptime 60s]
//
// -scale shrinks the Table I circuits by the given factor (dimension
// and net count); -scale 1 runs the full sizes, which takes hours
// (dominated by the exact DVI ILP, exactly as the paper reports for
// Gurobi). -circuits keeps only the first N of the six circuits; the
// EXPERIMENTS.md capture is `tables -table all -scale 8 -circuits 5
// -ilptime 10s`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
)

func main() {
	which := flag.String("table", "all", "table to regenerate: all, 1..7")
	scale := flag.Int("scale", 8, "benchmark shrink factor (1 = full Table I sizes)")
	ncirc := flag.Int("circuits", 6, "how many of the six circuits to run")
	ilpTime := flag.Duration("ilptime", time.Minute, "ILP time limit per circuit")
	flag.Parse()

	circuits := bench.ScaledSuite(*scale)
	if *ncirc < 1 {
		fmt.Fprintf(os.Stderr, "tables: -circuits must be >= 1, got %d\n", *ncirc)
		os.Exit(2)
	}
	if *ncirc < len(circuits) {
		circuits = circuits[:*ncirc]
	}
	run := func(name string, fn func() (*bench.Table, error)) {
		if *which != "all" && *which != name {
			return
		}
		start := time.Now()
		t, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: table %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		fmt.Printf("(generated in %.1fs)\n\n", time.Since(start).Seconds())
	}

	run("1", func() (*bench.Table, error) { return bench.Table1(circuits), nil })
	run("2", func() (*bench.Table, error) { return bench.Table2(), nil })
	run("3", func() (*bench.Table, error) { return bench.TableIIIIV(circuits, coloring.SIM, *ilpTime) })
	run("4", func() (*bench.Table, error) { return bench.TableIIIIV(circuits, coloring.SID, *ilpTime) })
	run("5", func() (*bench.Table, error) { return bench.TableV(circuits, *ilpTime) })
	run("6", func() (*bench.Table, error) { return bench.TableVIVII(circuits, coloring.SIM, *ilpTime) })
	run("7", func() (*bench.Table, error) { return bench.TableVIVII(circuits, coloring.SID, *ilpTime) })

	if *which != "all" && !strings.ContainsAny(*which, "1234567") {
		fmt.Fprintf(os.Stderr, "tables: unknown -table %q\n", *which)
		os.Exit(2)
	}
}
