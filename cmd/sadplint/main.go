// Command sadplint runs the repo's custom determinism, lock-
// discipline and cancellation analyzers (see DESIGN.md §11) over the
// production sources of the named packages:
//
//	sadplint [-json] [packages]   default ./...; exit 1 on any finding
//	sadplint -list                print the analyzers
//
// It honors //sadplint:ignore <analyzer> <reason> and
// //sadplint:ordered <reason> suppressions; a suppression without a
// reason is itself reported. `go test ./...` runs the same analysis
// through the suite's TestRepoIsClean.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analyzers/lint"
	"repro/internal/analyzers/suite"
)

func main() {
	flagList := flag.Bool("list", false, "list the analyzers and exit")
	flagJSON := flag.Bool("json", false, "print diagnostics as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sadplint [-json] [packages]   (default ./...)\n\nanalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *flagList {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := run(patterns, *flagJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadplint: %v\n", err)
	}
	if err != nil || n > 0 {
		os.Exit(1)
	}
}

// run loads the packages, analyzes them, prints the findings and
// returns how many there were.
func run(patterns []string, asJSON bool) (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		return 0, err
	}
	diags, err := lint.RunAnalyzers(pkgs, suite.Analyzers)
	if err != nil {
		return 0, err
	}
	if !asJSON {
		for _, d := range diags {
			fmt.Println(d)
		}
		return len(diags), nil
	}
	data, err := lint.DiagnosticsJSON(diags, wd)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s\n", data)
	return len(diags), nil
}
