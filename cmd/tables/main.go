// Command tables regenerates the paper's evaluation tables (I–VII)
// end to end on the synthetic benchmark suite.
//
// Usage:
//
//	tables [-table all|1|2|3|4|5|6|7] [-scale N] [-circuits N]
//
// -scale shrinks the Table I circuits by the given factor (dimension
// and net count); -scale 1 runs the full sizes, the EXPERIMENTS.md
// capture. -circuits keeps only the first N of the six circuits. Every
// ILP stops at bench.DeterministicILPNodeLimit ("*" marks a cell it
// left unproven; bench.DefaultILPTimeLimit stays only as a backstop),
// so only the CPU columns depend on the machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
)

func main() {
	which := flag.String("table", "all", "table to regenerate: all, 1..7")
	scale := flag.Int("scale", 8, "benchmark shrink factor (1 = full Table I sizes)")
	ncirc := flag.Int("circuits", 6, "how many of the six circuits to run")
	flag.Parse()

	usage := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "tables: "+format+"\n", args...)
		os.Exit(2)
	}
	switch *which {
	case "all", "1", "2", "3", "4", "5", "6", "7":
	default:
		usage("unknown -table %q (want all or 1..7)", *which)
	}
	if *scale < 1 {
		usage("-scale must be >= 1, got %d", *scale)
	}
	if *ncirc < 1 {
		usage("-circuits must be >= 1, got %d", *ncirc)
	}
	circuits := bench.ScaledSuite(*scale)
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
	run("3", func() (*bench.Table, error) { return bench.TableIIIIV(circuits, coloring.SIM) })
	run("4", func() (*bench.Table, error) { return bench.TableIIIIV(circuits, coloring.SID) })
	run("5", func() (*bench.Table, error) { return bench.TableV(circuits) })
	run("6", func() (*bench.Table, error) { return bench.TableVIVII(circuits, coloring.SIM) })
	run("7", func() (*bench.Table, error) { return bench.TableVIVII(circuits, coloring.SID) })
}
