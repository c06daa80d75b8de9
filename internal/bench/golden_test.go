package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/router"
	"repro/internal/solution"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden and counters files from the current code")

// goldenEntry pins every machine-independent metric of one golden-suite
// configuration, and the run's solution payload by its SHA-256, so a
// change that reorders paths or re-encodes the payload changes the
// goldens even where every metric holds. CPU timings are deliberately
// absent.
type goldenEntry struct {
	Circuit        string `json:"circuit"`
	Scheme         string `json:"scheme"`
	Method         string `json:"method"`
	WL             int    `json:"wl"`
	Vias           int    `json:"vias"`
	DV             int    `json:"dv"`
	UV             int    `json:"uv"`
	Inserted       int    `json:"inserted"`
	SolutionSHA256 string `json:"solution_sha256"`
}

// newGoldenEntry pins one finished run.
func newGoldenEntry(c Circuit, scheme coloring.SADPType, method DVIMethod, row Row, art *Artifacts) (goldenEntry, error) {
	b, err := solution.Encode(art.Router.Routes(), art.Instance, art.Solution)
	if err != nil {
		return goldenEntry{}, err
	}
	sum := sha256.Sum256(b)
	return goldenEntry{
		Circuit: c.Name, Scheme: scheme.String(), Method: method.String(),
		WL: row.WL, Vias: row.Vias, DV: row.DV, UV: row.UV,
		Inserted:       art.Solution.InsertedCount,
		SolutionSHA256: hex.EncodeToString(sum[:]),
	}, nil
}

// counterEntry pins the router's exact work counters (router.Stats)
// for one circuit under one SADP scheme. They are deterministic and
// machine-independent: equal counters mean the router expanded the
// same states in the same order and ripped up the same nets, which
// equal goldens alone do not show. DVI runs after routing, so one
// entry covers both DVI methods.
type counterEntry struct {
	Circuit            string `json:"circuit"`
	Scheme             string `json:"scheme"`
	Searches           int    `json:"searches"`
	Pops               int64  `json:"pops"`
	RRIterations       int    `json:"rr_iterations"`
	TPLRRIterations    int    `json:"tpl_rr_iterations"`
	FVPsResolved       int    `json:"fvps_resolved"`
	ColorFixIterations int    `json:"color_fix_iterations"`
	SteinerNets        int    `json:"steiner_nets"`
	SteinerFallbacks   int    `json:"steiner_fallbacks"`
	BatchedNets        int    `json:"batched_nets"`
	Redone             int    `json:"redone"`
}

func newCounterEntry(c Circuit, scheme coloring.SADPType, st router.Stats) counterEntry {
	return counterEntry{
		Circuit: c.Name, Scheme: scheme.String(),
		Searches: st.Searches, Pops: st.Pops,
		RRIterations: st.RRIterations, TPLRRIterations: st.TPLRRIterations,
		FVPsResolved: st.FVPsResolved, ColorFixIterations: st.ColorFixIterations,
		SteinerNets: st.SteinerNets, SteinerFallbacks: st.SteinerFallbacks,
		BatchedNets: st.BatchedNets, Redone: st.Redone,
	}
}

// goldenILPNodeLimit makes the exact solve deterministic across
// machines: branch-and-bound explores the same nodes in the same order
// everywhere, so capping nodes (never wall clock) fixes the incumbent.
const goldenILPNodeLimit = 50_000

// TestGolden routes each golden suite under both SADP modes with both
// DVI methods, verifies every run independently, and compares two
// checked-in files exactly: testdata/golden_<suite>.json holds the
// Table-style metrics and the solution payload's digest of each run,
// testdata/counters_<suite>.json the router's work counters of each
// circuit and scheme. A perf or refactoring change that claims the
// same results from the same search proves it by leaving both
// untouched; an intentional change reruns with -update and reviews the
// diff. Only the goldens describe results, and
// service.TestResultEpochPinsGoldens hashes only them, so a change
// that moves the counters alone needs no ResultEpoch bump.
func TestGolden(t *testing.T) {
	for _, s := range []struct {
		name     string
		circuits []Circuit
		// steiner requires every run to route some net on the
		// Steiner topology.
		steiner bool
	}{
		{"tiny", TinySuite(), false},
		{"multipin", TinyMultiPinSuite(), true},
	} {
		t.Run(s.name, func(t *testing.T) {
			type cfg struct {
				ckt    Circuit
				scheme coloring.SADPType
				method DVIMethod
			}
			var cfgs []cfg
			for _, ckt := range s.circuits {
				for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
					for _, method := range []DVIMethod{HeurDVI, ILPDVI} {
						cfgs = append(cfgs, cfg{ckt, scheme, method})
					}
				}
			}
			got := make([]goldenEntry, len(cfgs))
			counters := make([]counterEntry, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			for i, c := range cfgs {
				wg.Add(1)
				go func(i int, c cfg) {
					defer wg.Done()
					spec := RunSpec{
						Scheme: c.scheme, ConsiderDVI: true, ConsiderTPL: true,
						Method: c.method, ILPTimeLimit: 10 * time.Minute,
						ILPNodeLimit: goldenILPNodeLimit,
						Verify:       true,
					}
					row, art, err := Run(Generate(c.ckt), spec)
					if err != nil {
						errs[i] = fmt.Errorf("%s/%v/%v: %w", c.ckt.Name, c.scheme, c.method, err)
						return
					}
					if verr := art.Verify.Err(); verr != nil {
						errs[i] = fmt.Errorf("%s/%v/%v: verifier: %w", c.ckt.Name, c.scheme, c.method, verr)
						return
					}
					st := art.Router.Stats()
					if s.steiner && st.SteinerNets == 0 {
						errs[i] = fmt.Errorf("%s/%v/%v: no net used the Steiner topology", c.ckt.Name, c.scheme, c.method)
						return
					}
					counters[i] = newCounterEntry(c.ckt, c.scheme, st)
					got[i], errs[i] = newGoldenEntry(c.ckt, c.scheme, c.method, row, art)
				}(i, c)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			// cfgs pairs the heuristic and the ILP run of each circuit
			// and scheme; their routers did the same work.
			var perScheme []counterEntry
			for i := 0; i < len(cfgs); i += 2 {
				if counters[i] != counters[i+1] {
					t.Errorf("%s/%v: the heuristic and ILP runs report different router counters:\n  heur: %+v\n  ilp:  %+v",
						cfgs[i].ckt.Name, cfgs[i].scheme, counters[i], counters[i+1])
				}
				perScheme = append(perScheme, counters[i])
			}
			compareGolden(t, "golden_"+s.name+".json", got)
			compareGolden(t, "counters_"+s.name+".json", perScheme)
		})
	}
}

// compareGolden matches the computed entries against the named file in
// testdata, or rewrites the file under -update.
func compareGolden[E comparable](t *testing.T, file string, got []E) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (rerun this test with -update): %v", file, err)
	}
	var want []E
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s: %v", file, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, current run %d (rerun with -update after reviewing)", file, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s drifted at entry %d:\n  want: %+v\n  got:  %+v", file, i, want[i], got[i])
		}
	}
}
