// Command sadproute runs the full SADP-aware detailed routing flow on
// a netlist file, optionally followed by post-routing TPL-aware DVI.
//
// Usage:
//
//	sadproute -in circuit.net [-sadp sim|sid] [-dvi] [-tpl]
//	          [-method heur|ilp|none] [-ilptime 60s] [-check] [-verify]
//	          [-json] [-cpuprofile f] [-memprofile f]
//
// It prints the metrics the paper's tables report: wirelength, via
// count, routing CPU, dead via count (#DV) and uncolorable via count
// (#UV). With -json it emits the exact result schema the sadprouted
// service returns (internal/service/api.Result), so CLI and service
// output are interchangeable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/decompose"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service/api"
)

func main() {
	// All work happens in run so deferred profile writers execute
	// before the process exits.
	os.Exit(run())
}

func run() (code int) {
	in := flag.String("in", "", "input netlist file (required)")
	sadp := flag.String("sadp", "sim", "SADP type: sim or sid")
	considerDVI := flag.Bool("dvi", false, "consider DVI during routing (BDC/AMC/CDC)")
	considerTPL := flag.Bool("tpl", false, "consider via-layer TPL during routing")
	method := flag.String("method", "heur", "post-routing DVI: heur, ilp, or none")
	topology := flag.String("topology", "steiner", "multi-pin decomposition: steiner or star")
	ilpTime := flag.Duration("ilptime", time.Minute, "ILP time limit")
	check := flag.Bool("check", false, "run the SADP mask decomposition DRC on the result")
	doVerify := flag.Bool("verify", false, "re-check the result with the independent internal/verify checker; exit 1 on violations")
	jsonOut := flag.Bool("json", false, "emit the service result schema (api.Result) as JSON instead of text")
	seed := flag.Int64("seed", 0, "tie-breaking seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		return 2
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// The named return lets the deferred writer turn a failed
		// profile write into a non-zero exit code instead of silently
		// discarding the error.
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				code = failKeep(code, err)
				return
			}
			runtime.GC() // report live allocations, not garbage
			werr := pprof.WriteHeapProfile(mf)
			cerr := mf.Close()
			if werr != nil {
				code = failKeep(code, werr)
			} else if cerr != nil {
				code = failKeep(code, cerr)
			}
		}()
	}
	f, err := os.Open(*in)
	if err != nil {
		return fail(err)
	}
	nl, err := netlist.Read(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	typ, err := coloring.ParseSADPType(*sadp)
	if err != nil {
		return fail(fmt.Errorf("-sadp: %w", err))
	}
	meth, err := bench.ParseDVIMethod(*method)
	if err != nil {
		return fail(fmt.Errorf("-method: %w", err))
	}
	topo, err := router.ParseTopologyKind(*topology)
	if err != nil {
		return fail(fmt.Errorf("-topology: %w", err))
	}
	spec := bench.RunSpec{
		Scheme:       typ,
		ConsiderDVI:  *considerDVI,
		ConsiderTPL:  *considerTPL,
		Method:       meth,
		ILPTimeLimit: *ilpTime,
		Topology:     topo,
		Seed:         *seed,
		Verify:       *doVerify,
	}

	row, art, err := bench.Run(nl, spec)
	if err != nil {
		return fail(err)
	}
	res := api.ResultFrom(spec, row, art)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
	} else {
		st := art.Router.Stats()
		fmt.Printf("circuit %s: %d nets, %dx%d grid, %s SADP\n", nl.Name, len(nl.Nets), nl.W, nl.H, typ)
		fmt.Printf("routability %.0f%%  WL %d  #Vias %d  CPU %.2fs  (R&R %d, TPL-R&R %d, FVPs resolved %d, searches %d, pops %d, batched %d, redone %d)\n",
			row.Routability*100, row.WL, row.Vias, row.RouteCPU.Seconds(),
			st.RRIterations, st.TPLRRIterations, st.FVPsResolved, st.Searches, st.Pops, st.BatchedNets, st.Redone)
		if art.Solution != nil {
			fmt.Printf("DVI (%s): inserted %d  #DV %d  #UV %d\n", meth, res.InsertedVias, row.DV, row.UV)
		}
		if art.Verify != nil {
			if art.Verify.Ok() {
				fmt.Println("verify: ok")
			} else {
				fmt.Printf("verify: %d violation(s)\n", len(art.Verify.Violations))
				for i, v := range art.Verify.Violations {
					if i >= 10 {
						fmt.Println("  ...")
						break
					}
					fmt.Printf("  %v\n", v)
				}
			}
		}
	}

	if *check {
		dec := decompose.Decompose(art.Router.Grid(), art.Router.Routes())
		hard := dec.HardViolations()
		if !*jsonOut {
			fmt.Printf("decomposition check: %d hard violations, %d findings total\n", len(hard), len(dec.Violations))
			for i, v := range hard {
				if i >= 10 {
					fmt.Println("  ...")
					break
				}
				fmt.Printf("  %v\n", v)
			}
		}
		if len(hard) > 0 {
			fmt.Fprintf(os.Stderr, "sadproute: decomposition check: %d hard violations\n", len(hard))
			return 1
		}
	}
	if art.Verify != nil && !art.Verify.Ok() {
		fmt.Fprintf(os.Stderr, "sadproute: verify: %d violation(s)\n", len(art.Verify.Violations))
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "sadproute: %v\n", err)
	return 1
}

// failKeep reports err but preserves an existing non-zero exit code.
func failKeep(code int, err error) int {
	fmt.Fprintf(os.Stderr, "sadproute: %v\n", err)
	if code != 0 {
		return code
	}
	return 1
}
