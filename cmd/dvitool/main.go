// Command dvitool routes a netlist once and then solves the
// post-routing TPL-aware DVI problem with BOTH the exact ILP and the
// fast heuristic, reporting the comparison of Tables VI/VII (dead
// vias, uncolorable vias, CPU, speedup) on that single circuit.
//
// Usage:
//
//	dvitool -in circuit.net [-sadp sim|sid] [-ilptime 60s]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/netlist"

	sadproute "repro"
)

func main() {
	in := flag.String("in", "", "input netlist file (required)")
	sadp := flag.String("sadp", "sim", "SADP type: sim or sid")
	ilpTime := flag.Duration("ilptime", time.Minute, "ILP time limit")
	flag.Parse()
	typ, err := coloring.ParseSADPType(*sadp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvitool: -sadp: %v\n", err)
		os.Exit(2)
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	nl, err := netlist.Read(f)
	f.Close()
	if err != nil {
		fail(err)
	}

	// Routing solutions for the DVI comparison are produced with both
	// considerations on, exactly as in §IV-B.
	res, err := sadproute.Route(nl, sadproute.Config{SADP: typ, ConsiderDVI: true, ConsiderTPL: true})
	if err != nil {
		fail(err)
	}
	in2 := res.DVIInstance()
	fmt.Printf("%s (%s): %d single vias, %d feasible DVICs\n",
		nl.Name, typ, len(in2.Vias), totalCands(in2.Feas))

	t0 := time.Now()
	heur := in2.SolveHeuristic(dvi.DefaultHeurParams())
	heurCPU := time.Since(t0)
	if err := heur.Validate(in2); err != nil {
		fail(fmt.Errorf("heuristic solution invalid: %w", err))
	}

	t0 = time.Now()
	ilpSol, err := in2.SolveILP(dvi.ILPOptions{TimeLimit: *ilpTime})
	ilpCPU := time.Since(t0)
	if err != nil {
		fail(err)
	}
	if err := ilpSol.Validate(in2); err != nil {
		fail(fmt.Errorf("ILP solution invalid: %w", err))
	}

	fmt.Printf("%-10s %8s %8s %10s\n", "", "#DV", "#UV", "CPU(s)")
	fmt.Printf("%-10s %8d %8d %10.2f\n", "ILP", ilpSol.DeadVias, ilpSol.Uncolorable, ilpCPU.Seconds())
	fmt.Printf("%-10s %8d %8d %10.2f\n", "Heuristic", heur.DeadVias, heur.Uncolorable, heurCPU.Seconds())
	if heurCPU > 0 && ilpSol.DeadVias > 0 {
		fmt.Printf("speedup %.1fx, heuristic dead-via overhead %+.1f%%\n",
			float64(ilpCPU)/float64(heurCPU),
			100*float64(heur.DeadVias-ilpSol.DeadVias)/float64(ilpSol.DeadVias))
	}
}

func totalCands(feas [][]geom.Pt) int {
	n := 0
	for _, f := range feas {
		n += len(f)
	}
	return n
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dvitool: %v\n", err)
	os.Exit(1)
}
