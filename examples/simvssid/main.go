// simvssid routes the same circuit under SIM-type (spacer-is-metal,
// cut) and SID-type (spacer-is-dielectric, trim) SADP and compares the
// results — and demonstrates how the color pre-assignment classifies
// L-shaped turns differently for the two processes (paper Fig 4).
//
// Run with: go run ./examples/simvssid
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/geom"

	sadproute "repro"
)

func main() {
	// Part 1: the turn tables of Fig 4. At every grid point exactly
	// one corner orientation is preferred, one non-preferred, and two
	// forbidden — and SIM and SID disagree.
	fmt.Println("Turn classification by grid point class (Fig 4):")
	fmt.Printf("%-8s %-10s %-14s %-14s\n", "class", "corner", "SIM", "SID")
	sim := coloring.Scheme{Type: coloring.SIM}
	sid := coloring.Scheme{Type: coloring.SID}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			p := geom.XY(x, y)
			for c := coloring.Corner(0); c < coloring.NumCorners; c++ {
				fmt.Printf("(%d,%d)    %-10v %-14v %-14v\n", x, y, c, sim.Turn(p, c), sid.Turn(p, c))
			}
		}
	}

	// Part 2: route one benchmark circuit under both processes with
	// full DVI + TPL consideration and compare.
	nl := bench.Generate(bench.TinySuite()[2])
	fmt.Printf("\nRouting %q (%d nets, %dx%d) under both SADP types:\n",
		nl.Name, len(nl.Nets), nl.W, nl.H)
	fmt.Printf("%-6s %8s %8s %8s %8s %8s\n", "type", "WL", "#Vias", "CPU(s)", "#DV", "#UV")
	for _, typ := range []coloring.SADPType{coloring.SIM, coloring.SID} {
		start := time.Now()
		res, err := sadproute.Route(nl, sadproute.Config{
			SADP: typ, ConsiderDVI: true, ConsiderTPL: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		cpu := time.Since(start)
		sol, err := res.InsertDoubleVias(sadproute.Heuristic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6v %8d %8d %8.2f %8d %8d\n",
			typ, res.Stats.Wirelength, res.Stats.Vias, cpu.Seconds(), sol.DeadVias, sol.Uncolorable)
	}
}
