package router_test

// Tests of the batch engine over the bench suites: the footprint its
// validation relies on, and byte-identical output whatever the number
// of helper goroutines.

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/router"
)

// TestCommitFootprintsInsideWriteRect: on the golden suites under
// both SADP schemes, every commit — first pass, congestion reroutes
// and the TPL phases alike — writes no price, occupancy or
// Steiner-claim cell outside its net's write rect. Widening a cost's
// reach without widening the spill radius fails here.
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

// TestGOMAXPROCSDifferential routes the tiny suites and ScaledSuite(4)
// under SIM and SID at GOMAXPROCS 1, 2 and 4, with every multi-net
// batch handed to helpers, and requires the same route geometry, DVI
// solution and Stats each time. Under -race it is the race check of
// the helpers.
func TestGOMAXPROCSDifferential(t *testing.T) {
	defer router.SetHelperMinArea(0)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	suite := append(bench.TinySuite(), bench.TinyMultiPinSuite()...)
	if !testing.Short() {
		suite = append(suite, bench.ScaledSuite(4)...)
	}
	handoffs := 0
	for _, c := range suite {
		nl := bench.Generate(c)
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			spec := bench.RunSpec{Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
			var ref outcome
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				_, art, err := bench.Run(nl, spec)
				if err != nil {
					t.Fatalf("%s/%v at GOMAXPROCS %d: %v", c.Name, scheme, procs, err)
				}
				got := outcomeOf(art)
				switch {
				case procs == 1:
					if n := art.Router.Handoffs(); n != 0 {
						t.Fatalf("%s/%v: %d batches handed off at GOMAXPROCS 1", c.Name, scheme, n)
					}
					ref = got
				case !sameOutcome(got, ref):
					t.Fatalf("%s/%v: GOMAXPROCS %d changed the output\nstats %+v\nwant  %+v",
						c.Name, scheme, procs, got.stats, ref.stats)
				default:
					handoffs += art.Router.Handoffs()
				}
			}
			if ref.stats.BatchedNets == 0 {
				t.Errorf("%s/%v: no net was routed in a batch", c.Name, scheme)
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
// must redo exactly those: the output equals the planned run's at
// every GOMAXPROCS, and only the batch counters differ.
func TestValidationCatchesOverlaps(t *testing.T) {
	defer router.SetHelperMinArea(0)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	redone := 0
	for _, c := range append(bench.TinySuite(), bench.TinyMultiPinSuite()...) {
		nl := bench.Generate(c)
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
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
					t.Fatalf("%s/%v at GOMAXPROCS %d: %v", c.Name, scheme, procs, err)
				}
				got := outcomeOf(art)
				redone += got.stats.Redone
				got.stats.BatchedNets, got.stats.Redone = 0, 0
				if !sameOutcome(got, want) {
					restore()
					t.Fatalf("%s/%v: blind batches at GOMAXPROCS %d changed the output\nstats %+v\nwant  %+v",
						c.Name, scheme, procs, got.stats, want.stats)
				}
			}
			restore()
		}
	}
	if redone == 0 {
		t.Fatal("blind batches redid no speculative route")
	}
}
