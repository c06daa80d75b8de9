package router_test

// Tests of the batch engine over the bench suites: the footprint its
// validation relies on, and byte-identical output whatever the number
// of helper goroutines.

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/netlist"
	"repro/internal/router"
)

// TestCommitFootprintsInsideWriteRect: on the golden suites under
// both SADP schemes, every commit — first pass, congestion reroutes
// and the TPL phases alike — changes no price, occupancy,
// Steiner-claim cell or FVP block answer outside its net's write rect.
// Widening a cost's reach, or what the search reads, without widening
// the spill radius fails here.
func TestCommitFootprintsInsideWriteRect(t *testing.T) {
	rrIters := 0
	for _, c := range append(bench.TinySuite(), bench.TinyMultiPinSuite()...) {
		nl := bench.Generate(c)
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			cfg := router.Config{Scheme: coloring.Scheme{Type: scheme}, ConsiderDVI: true, ConsiderTPL: true}
			rt, commits, err := router.CheckCommitFootprints(nl, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, scheme, err)
			}
			if commits < len(nl.Nets) {
				t.Fatalf("%s/%v: %d commits checked for %d nets", c.Name, scheme, commits, len(nl.Nets))
			}
			rrIters += rt.Stats().RRIterations
		}
	}
	if rrIters == 0 {
		t.Fatal("no congestion reroute was committed on the golden suites")
	}
}

// outcome is everything a routing job outputs that the helper count
// must not change.
type outcome struct {
	stats router.Stats
	geom  [][]int32 // per net: points then vias, flattened
	dvi   []int
	cols  []int8
	red   []int8
}

func outcomeOf(art *bench.Artifacts) outcome {
	o := outcome{stats: art.Router.Stats()}
	for _, r := range art.Router.Routes() {
		var g []int32
		for _, p := range r.PointList() {
			g = append(g, int32(p.X), int32(p.Y), int32(p.Layer))
		}
		g = append(g, -1)
		for _, v := range r.ViaList() {
			g = append(g, int32(v.X), int32(v.Y), int32(v.Layer))
		}
		o.geom = append(o.geom, g)
	}
	o.dvi, o.cols, o.red = art.Solution.Inserted, art.Solution.Colors, art.Solution.RedColors
	return o
}

func sameOutcome(a, b outcome) bool {
	return a.stats == b.stats &&
		slices.EqualFunc(a.geom, b.geom, slices.Equal[[]int32]) &&
		slices.Equal(a.dvi, b.dvi) && slices.Equal(a.cols, b.cols) && slices.Equal(a.red, b.red)
}

// batchInput is one netlist and the SADP schemes it is routed under.
type batchInput struct {
	name    string
	nl      *netlist.Netlist
	schemes []coloring.SADPType
}

// batchInputs returns the tiny suites and, when scaled is set,
// ScaledSuite(4), each under SIM and SID, then the two serve netlists
// of TestTPLCongestionUnblocks under their own schemes: c0-0080 (SIM)
// runs about 1 350 TPL-phase congestion rounds and c1-0245 (SID) 19
// TPL iterations, so the TPL phase's batches are under test too.
func batchInputs(t *testing.T, scaled bool) []batchInput {
	t.Helper()
	suite := append(bench.TinySuite(), bench.TinyMultiPinSuite()...)
	if scaled {
		suite = append(suite, bench.ScaledSuite(4)...)
	}
	both := []coloring.SADPType{coloring.SIM, coloring.SID}
	var in []batchInput
	for _, c := range suite {
		in = append(in, batchInput{c.Name, bench.Generate(c), both})
	}
	for _, f := range []struct {
		file   string
		scheme coloring.SADPType
	}{{"c0-0080.net", coloring.SIM}, {"c1-0245.net", coloring.SID}} {
		r, err := os.Open(filepath.Join("testdata", f.file))
		if err != nil {
			t.Fatal(err)
		}
		nl, err := netlist.Read(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, batchInput{f.file, nl, []coloring.SADPType{f.scheme}})
	}
	return in
}

// TestGOMAXPROCSDifferential routes the batch inputs (ScaledSuite(4)
// unless -short) at GOMAXPROCS 1, 2 and 4, with every multi-net batch
// handed to helpers, and requires the same route geometry, DVI
// solution and Stats each time. Under -race it is the race check of
// the helpers.
func TestGOMAXPROCSDifferential(t *testing.T) {
	defer router.SetHelperMinArea(0)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	handoffs := 0
	for _, c := range batchInputs(t, !testing.Short()) {
		nl := c.nl
		for _, scheme := range c.schemes {
			spec := bench.RunSpec{Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
			var ref outcome
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				_, art, err := bench.Run(nl, spec)
				if err != nil {
					t.Fatalf("%s/%v at GOMAXPROCS %d: %v", c.name, scheme, procs, err)
				}
				got := outcomeOf(art)
				switch {
				case procs == 1:
					if n := art.Router.Handoffs(); n != 0 {
						t.Fatalf("%s/%v: %d batches handed off at GOMAXPROCS 1", c.name, scheme, n)
					}
					ref = got
				case !sameOutcome(got, ref):
					t.Fatalf("%s/%v: GOMAXPROCS %d changed the output\nstats %+v\nwant  %+v",
						c.name, scheme, procs, got.stats, ref.stats)
				default:
					handoffs += art.Router.Handoffs()
				}
			}
			if ref.stats.BatchedNets == 0 {
				t.Errorf("%s/%v: no net was routed in a batch", c.name, scheme)
			}
		}
	}
	if handoffs == 0 {
		t.Fatal("no batch was handed to a helper")
	}
}

// TestValidationCatchesOverlaps plans batches blind — eight
// consecutive nets whatever their footprints — so most speculative
// routes read what an earlier net of their batch wrote. The validation
// must redo exactly those: on the batch inputs without ScaledSuite(4)
// the output equals the planned run's at every GOMAXPROCS, and only
// the batch counters differ.
func TestValidationCatchesOverlaps(t *testing.T) {
	defer router.SetHelperMinArea(0)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	redone := 0
	for _, c := range batchInputs(t, false) {
		nl := c.nl
		for _, scheme := range c.schemes {
			spec := bench.RunSpec{Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
			_, art, err := bench.Run(nl, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := outcomeOf(art)
			want.stats.BatchedNets, want.stats.Redone = 0, 0
			restore := router.SetPlanBlind()
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				_, art, err := bench.Run(nl, spec)
				if err != nil {
					restore()
					t.Fatalf("%s/%v at GOMAXPROCS %d: %v", c.name, scheme, procs, err)
				}
				got := outcomeOf(art)
				redone += got.stats.Redone
				got.stats.BatchedNets, got.stats.Redone = 0, 0
				if !sameOutcome(got, want) {
					restore()
					t.Fatalf("%s/%v: blind batches at GOMAXPROCS %d changed the output\nstats %+v\nwant  %+v",
						c.name, scheme, procs, got.stats, want.stats)
				}
			}
			restore()
		}
	}
	if redone == 0 {
		t.Fatal("blind batches redid no speculative route")
	}
}
