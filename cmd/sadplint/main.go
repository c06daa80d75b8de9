// Command sadplint runs the repo's custom determinism, lock-
// discipline and cancellation analyzers (see DESIGN.md §11).
//
// Two modes share one binary:
//
//	sadplint ./...              standalone: load packages, analyze,
//	                            print diagnostics, exit 1 if any
//	go vet -vettool=<path>      unit mode: `go vet` drives sadplint
//	                            one compilation unit at a time via
//	                            the -V=full / -flags / foo.cfg
//	                            protocol
//
// Both modes honor //sadplint:ignore <analyzer> <reason> and
// //sadplint:ordered <reason> suppressions; a suppression without a
// reason is itself reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyzers/lint"
	"repro/internal/analyzers/suite"
)

func main() {
	flagV := flag.String("V", "", "print version and exit (go vet protocol; use -V=full)")
	flagFlags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	flagList := flag.Bool("list", false, "list the analyzers and exit")
	flagJSON := flag.Bool("json", false, "standalone mode: print diagnostics as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sadplint [packages]   (standalone, e.g. sadplint ./...)\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(command -v sadplint) ./...\n\nanalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	switch {
	case *flagV != "":
		if *flagV != "full" {
			fmt.Fprintf(os.Stderr, "sadplint: unsupported flag value: -V=%s (use -V=full)\n", *flagV)
			os.Exit(2)
		}
		lint.PrintVersion()
		return
	case *flagFlags:
		lint.PrintFlagsJSON()
		return
	case *flagList:
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnit(args[0])
		return
	}
	runStandalone(args, *flagJSON)
}

// runUnit is one `go vet` compilation unit.
func runUnit(cfg string) {
	diags, err := lint.RunUnit(cfg, suite.Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadplint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		// go vet surfaces stderr verbatim; match cmd/vet's
		// file:line:col: message form.
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runStandalone loads whole packages from source.
func runStandalone(patterns []string, asJSON bool) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadplint: %v\n", err)
		os.Exit(1)
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadplint: %v\n", err)
		os.Exit(1)
	}
	diags, err := lint.RunAnalyzers(pkgs, suite.Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadplint: %v\n", err)
		os.Exit(1)
	}
	if asJSON {
		data, err := lint.DiagnosticsJSON(diags, wd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sadplint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", data)
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
