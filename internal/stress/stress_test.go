package stress

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/verify"
)

// TestStressFixedSeed is the go-test entry of the harness: a short
// deterministic sweep that must come back clean. CI runs the same
// harness longer via cmd/stress.
func TestStressFixedSeed(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	res, fail := Run(Config{
		Seed:      1,
		Budget:    time.Minute, // the trial cap is the real bound
		MaxTrials: trials,
		Logf:      t.Logf,
	})
	if fail != nil {
		dir := t.TempDir()
		if path, err := fail.WriteFiles(dir); err == nil {
			t.Logf("reproducer written to %s", path)
		}
		t.Fatalf("stress failure: %v", fail)
	}
	if res.Trials != trials || res.Checks != trials*4 {
		t.Fatalf("ran %d trials / %d checks, want %d / %d", res.Trials, res.Checks, trials, trials*4)
	}
}

// TestStressFixedSeedMultiPin runs the same sweep with pin counts
// drawn from [2, 6], so every trial routes k-pin nets through the
// Steiner decomposition and the verifier checks them from the pin set
// alone.
func TestStressFixedSeedMultiPin(t *testing.T) {
	trials := 2
	if testing.Short() {
		trials = 1
	}
	res, fail := Run(Config{
		Seed:      7,
		Budget:    time.Minute, // the trial cap is the real bound
		MaxTrials: trials,
		MaxPins:   6,
		Logf:      t.Logf,
	})
	if fail != nil {
		dir := t.TempDir()
		if path, err := fail.WriteFiles(dir); err == nil {
			t.Logf("reproducer written to %s", path)
		}
		t.Fatalf("multi-pin stress failure: %v", fail)
	}
	if res.Trials != trials || res.Checks != trials*4 {
		t.Fatalf("ran %d trials / %d checks, want %d / %d", res.Trials, res.Checks, trials, trials*4)
	}
}

// TestCheckPipelineCatchesBadNetlist: an unroutable input must surface
// as a stage failure, not a panic or a silent pass.
func TestCheckPipelineCatchesBadNetlist(t *testing.T) {
	// Two nets forced through the same single column cannot both
	// route... but the router may still manage on two layers; instead
	// use a 1-wide grid where vertical layer-0 routing is impossible
	// for a horizontal-preferred layer. Keep it simple: pins of two
	// nets interleaved on one row of a 4x1 grid.
	nl := &netlist.Netlist{Name: "clash", W: 4, H: 1, NumLayers: 2}
	nl.Nets = []*netlist.Net{
		{ID: 0, Name: "a", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(2, 0)}},
		{ID: 1, Name: "b", Pins: []geom.Pt{geom.XY(1, 0), geom.XY(3, 0)}},
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	fail := checkPipeline(nl, coloring.SIM)
	if fail == nil {
		t.Skip("router found a legal crossing; nothing to assert")
	}
	if fail.Stage == "" || fail.Err == nil {
		t.Fatalf("failure lacks stage/error: %+v", fail)
	}
}

// TestShrinkNetlist checks the ddmin loop on a synthetic predicate:
// failure iff the netlist still contains the one "bad" net. The
// shrinker must isolate exactly that net (plus nothing else).
func TestShrinkNetlist(t *testing.T) {
	nl := &netlist.Netlist{Name: "s", W: 32, H: 32, NumLayers: 2}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("n%d", i)
		if i == 11 {
			name = "bad"
		}
		nl.Nets = append(nl.Nets, &netlist.Net{
			ID: i, Name: name,
			Pins: []geom.Pt{geom.XY(i, i), geom.XY(i+2, i)},
		})
	}
	calls := 0
	hasBad := func(cand *netlist.Netlist) bool {
		calls++
		if err := cand.Validate(); err != nil {
			t.Fatalf("shrinker produced an invalid candidate: %v", err)
		}
		for _, n := range cand.Nets {
			if n.Name == "bad" {
				return true
			}
		}
		return false
	}
	out := shrinkNetlist(nl, hasBad, 1000)
	if len(out.Nets) != 1 || out.Nets[0].Name != "bad" {
		names := make([]string, len(out.Nets))
		for i, n := range out.Nets {
			names[i] = n.Name
		}
		t.Fatalf("shrunk to %d nets %v, want just [bad] (%d predicate calls)", len(out.Nets), names, calls)
	}
}

// TestShrinkRemovesPins: the pin-level ddmin pass must strip the pins
// that don't matter from a multi-pin net. The synthetic predicate
// fails iff the "bad" net still reaches pin (30, 30); the minimal
// reproducer keeps that pin plus exactly one more (a net needs two).
func TestShrinkRemovesPins(t *testing.T) {
	nl := &netlist.Netlist{Name: "p", W: 32, H: 32, NumLayers: 2}
	nl.Nets = []*netlist.Net{
		{ID: 0, Name: "ok", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(4, 0)}},
		{ID: 1, Name: "bad", Pins: []geom.Pt{
			geom.XY(10, 10), geom.XY(20, 5), geom.XY(30, 30), geom.XY(5, 25), geom.XY(15, 18), geom.XY(28, 2),
		}},
	}
	marker := geom.XY(30, 30)
	hasMarker := func(cand *netlist.Netlist) bool {
		if err := cand.Validate(); err != nil {
			t.Fatalf("shrinker produced an invalid candidate: %v", err)
		}
		for _, n := range cand.Nets {
			if n.Name != "bad" {
				continue
			}
			for _, p := range n.Pins {
				if p == marker {
					return true
				}
			}
		}
		return false
	}
	out := shrinkNetlist(nl, hasMarker, 1000)
	if len(out.Nets) != 1 || out.Nets[0].Name != "bad" {
		t.Fatalf("net-level shrink kept %d nets, want just [bad]", len(out.Nets))
	}
	if got := len(out.Nets[0].Pins); got != 2 {
		t.Fatalf("pin-level shrink kept %d pins %v, want 2", got, out.Nets[0].Pins)
	}
	found := false
	for _, p := range out.Nets[0].Pins {
		if p == marker {
			found = true
		}
	}
	if !found {
		t.Fatalf("shrunk net lost the marker pin: %v", out.Nets[0].Pins)
	}
}

// TestShrinkRespectsBudget: the shrinker must stop re-running the
// predicate once the budget is spent and still return a failing input.
func TestShrinkRespectsBudget(t *testing.T) {
	nl := &netlist.Netlist{Name: "s", W: 32, H: 32, NumLayers: 2}
	for i := 0; i < 8; i++ {
		nl.Nets = append(nl.Nets, &netlist.Net{
			ID: i, Name: fmt.Sprintf("n%d", i),
			Pins: []geom.Pt{geom.XY(i, i), geom.XY(i+2, i)},
		})
	}
	calls := 0
	alwaysFails := func(*netlist.Netlist) bool { calls++; return true }
	out := shrinkNetlist(nl, alwaysFails, 3)
	if calls > 3 {
		t.Fatalf("predicate called %d times, budget 3", calls)
	}
	if len(out.Nets) == 0 {
		t.Fatal("shrunk to an empty netlist")
	}
}

// TestWriteFiles round-trips the reproducer artifacts: the netlist
// re-reads, and the corpus entry is in go-fuzz v1 format.
func TestWriteFiles(t *testing.T) {
	nl := &netlist.Netlist{Name: "r", W: 8, H: 8, NumLayers: 2}
	nl.Nets = []*netlist.Net{{ID: 0, Name: "a", Pins: []geom.Pt{geom.XY(1, 1), geom.XY(5, 1)}}}
	fail := &Failure{
		Netlist: nl, Mode: coloring.SIM, Stage: "verify-routing",
		Report: &verify.Report{},
		Err:    fmt.Errorf("synthetic"),
	}
	dir := t.TempDir()
	path, err := fail.WriteFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := netlist.Read(f)
	if err != nil {
		t.Fatalf("reproducer netlist does not re-read: %v", err)
	}
	if back.Name != "r" || len(back.Nets) != 1 {
		t.Fatalf("reproducer shape changed: %+v", back)
	}
	corpus, err := os.ReadFile(filepath.Join(dir, "repro.corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(corpus), "go test fuzz v1\nstring(") {
		t.Fatalf("corpus entry not in go-fuzz v1 format: %q", corpus)
	}
}

// The heur-vs-ilp check compares objectives: an exact solution that
// inserts fewer redundant vias but leaves fewer vias uncolorable is
// better, not a failure.
func TestWorseObjective(t *testing.T) {
	for _, tc := range []struct {
		ilpUV, ilpIns, heurUV, heurIns int
		worse                          bool
	}{
		{0, 10, 0, 10, false},
		{0, 11, 0, 10, false},
		{0, 9, 0, 10, true},
		{0, 8, 1, 10, false},
		{1, 12, 0, 10, true},
	} {
		ilp := &dvi.Solution{Uncolorable: tc.ilpUV, InsertedCount: tc.ilpIns}
		heur := &dvi.Solution{Uncolorable: tc.heurUV, InsertedCount: tc.heurIns}
		if got := worseObjective(ilp, heur); got != tc.worse {
			t.Errorf("ILP UV %d ins %d vs heuristic UV %d ins %d: worse %v, want %v",
				tc.ilpUV, tc.ilpIns, tc.heurUV, tc.heurIns, got, tc.worse)
		}
	}
}
