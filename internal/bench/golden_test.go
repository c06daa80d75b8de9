package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/solution"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the current code")

// goldenEntry pins every machine-independent metric of one tiny-suite
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

// goldenILPNodeLimit makes the exact solve deterministic across
// machines: branch-and-bound explores the same nodes in the same order
// everywhere, so capping nodes (never wall clock) fixes the incumbent.
const goldenILPNodeLimit = 50_000

// TestGoldenTinySuite compares Table-style metrics for the tiny suite
// across both SADP modes and both DVI methods against the checked-in
// golden file, exactly. A perf or refactoring PR that claims
// bit-identical results proves it by leaving this file untouched;
// an intentional behavior change reruns with -update and reviews the
// diff.
func TestGoldenTinySuite(t *testing.T) {
	type cfg struct {
		ckt    Circuit
		scheme coloring.SADPType
		method DVIMethod
	}
	var cfgs []cfg
	for _, ckt := range TinySuite() {
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			for _, method := range []DVIMethod{HeurDVI, ILPDVI} {
				cfgs = append(cfgs, cfg{ckt, scheme, method})
			}
		}
	}
	got := make([]goldenEntry, len(cfgs))
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
			got[i], errs[i] = newGoldenEntry(c.ckt, c.scheme, c.method, row, art)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	compareGolden(t, "golden_tiny.json", got)
}

// TestGoldenMultiPinSuite pins the multi-pin tiny suite (pin counts
// uniform in [2, 6], Steiner decomposition) the same way: both SADP
// modes, both DVI methods, independent verification, exact metric
// match against testdata/golden_multipin.json.
func TestGoldenMultiPinSuite(t *testing.T) {
	type cfg struct {
		ckt    Circuit
		scheme coloring.SADPType
		method DVIMethod
	}
	var cfgs []cfg
	for _, ckt := range TinyMultiPinSuite() {
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			for _, method := range []DVIMethod{HeurDVI, ILPDVI} {
				cfgs = append(cfgs, cfg{ckt, scheme, method})
			}
		}
	}
	got := make([]goldenEntry, len(cfgs))
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
			if art.Router.Stats().SteinerNets == 0 {
				errs[i] = fmt.Errorf("%s/%v/%v: no net used the Steiner topology", c.ckt.Name, c.scheme, c.method)
				return
			}
			got[i], errs[i] = newGoldenEntry(c.ckt, c.scheme, c.method, row, art)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "golden_multipin.json", got)
}

// compareGolden matches the computed entries against the named golden
// file in testdata, or rewrites the file under -update.
func compareGolden(t *testing.T, file string, got []goldenEntry) {
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
		t.Fatalf("missing golden file (rerun this test with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, current run %d (rerun with -update after reviewing)", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("metrics drifted for %s/%s/%s:\n  golden:  %+v\n  current: %+v",
				got[i].Circuit, got[i].Scheme, got[i].Method, want[i], got[i])
		}
	}
}
