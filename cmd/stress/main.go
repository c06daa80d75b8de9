// Command stress runs the randomized pipeline stress harness: random
// circuits are routed under both SADP modes, both DVI solvers run on
// each instance, and every result is checked by the independent
// internal/verify checker. A failure is shrunk to a minimal reproducer
// and written to -out.
//
// Usage:
//
//	stress [-seed 1] [-budget 30s] [-trials 0] [-maxpins 0]
//	       [-out dir] [-q]
//
// Exit status 0 means every check passed; 1 means a reproducible
// failure was found (and dumped); 2 means bad usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/stress"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "trial sequence seed (same seed = same trials)")
	budget := flag.Duration("budget", 30*time.Second, "wall-clock budget")
	trials := flag.Int("trials", 0, "additional trial cap (0 = budget only)")
	maxPins := flag.Int("maxpins", 0, "draw pin counts uniformly from [2, maxpins] (0 = classic 2-pin-heavy mix)")
	out := flag.String("out", "", "directory for the minimal reproducer on failure")
	quiet := flag.Bool("q", false, "suppress per-trial progress")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	cfg := stress.Config{
		Seed:      *seed,
		Budget:    *budget,
		MaxTrials: *trials,
		MaxPins:   *maxPins,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Printf("stress: "+format+"\n", args...)
		}
	}

	start := time.Now()
	res, fail := stress.Run(cfg)
	if fail == nil {
		fmt.Printf("stress: OK — %d trials, %d verified pipeline results in %.1fs (seed %d)\n",
			res.Trials, res.Checks, time.Since(start).Seconds(), *seed)
		return 0
	}

	fmt.Fprintf(os.Stderr, "%v\n", fail)
	if fail.Report != nil {
		for i, v := range fail.Report.Violations {
			if i >= 10 {
				fmt.Fprintln(os.Stderr, "  ...")
				break
			}
			fmt.Fprintf(os.Stderr, "  %v\n", v)
		}
	}
	if *out != "" {
		path, err := fail.WriteFiles(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stress: writing reproducer: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "stress: minimal reproducer written to %s\n", path)
		}
	}
	return 1
}
