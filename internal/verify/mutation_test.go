package verify_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/verify"
)

// The mutation tests corrupt a known-good solution in targeted ways
// and assert the verifier flags each corruption with the right
// violation kind — the test of the tester.

// fixture runs the full pipeline once on the smallest tiny circuit.
func fixture(t *testing.T) (*netlist.Netlist, []*grid.Route, *dvi.Instance, *dvi.Solution) {
	t.Helper()
	nl := bench.Generate(bench.TinySuite()[0])
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.HeurDVI,
	}
	_, art, err := bench.Run(nl, spec)
	if err != nil {
		t.Fatalf("bench.Run: %v", err)
	}
	return nl, art.Router.Routes(), art.Instance, art.Solution
}

var fixOpt = verify.Options{SADP: coloring.SIM, CheckTPL: true}

// copyRoutes deep-copies route geometry so a mutation cannot leak into
// other subtests through the shared fixture.
func copyRoutes(routes []*grid.Route) []*grid.Route {
	out := make([]*grid.Route, len(routes))
	for i, r := range routes {
		if r == nil {
			continue
		}
		c := grid.NewRoute(r.Net)
		for _, p := range r.Paths {
			c.AddPath(append([]geom.Pt3(nil), p...))
		}
		out[i] = c
	}
	return out
}

func copySolution(s *dvi.Solution) *dvi.Solution {
	c := *s
	c.Inserted = append([]int(nil), s.Inserted...)
	c.Colors = append([]int8(nil), s.Colors...)
	c.RedColors = append([]int8(nil), s.RedColors...)
	return &c
}

// fixStats recounts the solution's counters so a mutation test can
// isolate its target kind from DVIStatsMismatch noise.
func fixStats(s *dvi.Solution) {
	s.InsertedCount, s.DeadVias, s.Uncolorable = 0, 0, 0
	for i := range s.Inserted {
		if s.Inserted[i] >= 0 {
			s.InsertedCount++
		} else {
			s.DeadVias++
		}
		if s.Colors[i] == -1 {
			s.Uncolorable++
		}
	}
}

func TestMutationDropSegment(t *testing.T) {
	nl, routes, _, _ := fixture(t)
	// Find a net routed as a single polyline: splitting it in the
	// middle must disconnect it (no alternate path can bridge the gap).
	for i, r := range routes {
		if r == nil || len(r.Paths) != 1 || len(r.Paths[0]) < 3 {
			continue
		}
		mut := copyRoutes(routes)
		path := mut[i].Paths[0]
		k := len(path) / 2
		mut[i].Paths = [][]geom.Pt3{path[:k], path[k:]}
		rep := verify.Routing(nl, mut, fixOpt)
		if !rep.Has(verify.Disconnected) {
			t.Fatalf("dropping the middle segment of net %d not flagged as disconnected; report: %v", i, rep.Err())
		}
		return
	}
	t.Fatal("no single-path net found in fixture")
}

func TestMutationUnroutedNet(t *testing.T) {
	nl, routes, _, _ := fixture(t)
	mut := copyRoutes(routes)
	mut[0] = nil
	rep := verify.Routing(nl, mut, fixOpt)
	if !rep.Has(verify.Unrouted) {
		t.Fatalf("nil route not flagged as unrouted; report: %v", rep.Err())
	}
}

func TestMutationBadStepAndOffGrid(t *testing.T) {
	nl, routes, _, _ := fixture(t)

	mut := copyRoutes(routes)
	p0 := mut[0].Paths[0][0]
	mut[0].Paths = append(mut[0].Paths, []geom.Pt3{p0, geom.XYL(p0.X, p0.Y, p0.Layer+1), p0}) // keep connected
	mut[0].Paths = append(mut[0].Paths, []geom.Pt3{p0, geom.XYL(p0.X+2, p0.Y, p0.Layer)})
	if rep := verify.Routing(nl, mut, fixOpt); !rep.Has(verify.BadStep) {
		t.Fatalf("two-unit jump not flagged as bad step; report: %v", rep.Err())
	}

	mut = copyRoutes(routes)
	mut[0].Paths = append(mut[0].Paths, []geom.Pt3{geom.XYL(-1, 0, 0), geom.XYL(0, 0, 0)})
	if rep := verify.Routing(nl, mut, fixOpt); !rep.Has(verify.OffGrid) {
		t.Fatalf("negative coordinate not flagged as off-grid; report: %v", rep.Err())
	}
}

func TestMutationMetalShort(t *testing.T) {
	nl, routes, _, _ := fixture(t)
	// Find two nets with metal one step apart on the same layer and
	// extend the first onto the second's point.
	own := map[geom.Pt3]int32{}
	for _, r := range routes {
		for _, p := range r.PointList() {
			own[p] = r.Net
		}
	}
	for _, r := range routes {
		for _, p := range r.PointList() {
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				q := geom.XYL(p.X+d[0], p.Y+d[1], p.Layer)
				if other, ok := own[q]; ok && other != r.Net {
					mut := copyRoutes(routes)
					mut[r.Net].Paths = append(mut[r.Net].Paths, []geom.Pt3{p, q})
					rep := verify.Routing(nl, mut, fixOpt)
					if !rep.Has(verify.MetalShort) {
						t.Fatalf("net %d extended onto net %d's metal at %v not flagged as short; report: %v",
							r.Net, other, q, rep.Err())
					}
					return
				}
			}
		}
	}
	t.Fatal("no adjacent metal of two nets found in fixture")
}

func TestMutationRecolorVia(t *testing.T) {
	nl, routes, in, sol := fixture(t)
	// Find two originals on the same via layer within the same-color
	// pitch, both colored, and force them to one color.
	for i := range in.Vias {
		if sol.Colors[i] < 0 {
			continue
		}
		for j := range in.Vias {
			if j == i || sol.Colors[j] < 0 || sol.Colors[j] == sol.Colors[i] {
				continue
			}
			if in.Vias[i].Layer() != in.Vias[j].Layer() {
				continue
			}
			dx := in.Vias[i].Pos().X - in.Vias[j].Pos().X
			dy := in.Vias[i].Pos().Y - in.Vias[j].Pos().Y
			if dx*dx+dy*dy > 5 {
				continue
			}
			mut := copySolution(sol)
			mut.Colors[i] = mut.Colors[j]
			fixStats(mut)
			rep := verify.Solution(nl, routes, in, mut, fixOpt)
			if !rep.Has(verify.DVIColorConflict) {
				t.Fatalf("recolored vias %d/%d within pitch not flagged; report: %v", i, j, rep.Err())
			}
			return
		}
	}
	t.Fatal("no within-pitch differently-colored via pair found in fixture")
}

func TestMutationDoubleInsert(t *testing.T) {
	nl, routes, in, sol := fixture(t)
	// Two vias on one layer sharing a feasible candidate: inserting
	// both at that site is a collision.
	for i := range in.Vias {
		for _, ci := range in.Feas[i] {
			for j := range in.Vias {
				if j == i || in.Vias[i].Layer() != in.Vias[j].Layer() {
					continue
				}
				for cj, c := range in.Feas[j] {
					if c != ci {
						continue
					}
					mut := copySolution(sol)
					for ii, cc := range in.Feas[i] {
						if cc == ci {
							mut.Inserted[i] = ii
						}
					}
					mut.Inserted[j] = cj
					mut.RedColors[i], mut.RedColors[j] = 0, 1
					fixStats(mut)
					rep := verify.Solution(nl, routes, in, mut, fixOpt)
					if !rep.Has(verify.DVICollision) {
						t.Fatalf("vias %d and %d both inserted at %v not flagged; report: %v", i, j, ci, rep.Err())
					}
					return
				}
			}
		}
	}
	t.Fatal("no shared feasible candidate found in fixture")
}

func TestMutationDVIScalars(t *testing.T) {
	nl, routes, in, sol := fixture(t)

	mut := copySolution(sol)
	mut.InsertedCount++
	if rep := verify.Solution(nl, routes, in, mut, fixOpt); !rep.Has(verify.DVIStatsMismatch) {
		t.Fatalf("inflated InsertedCount not flagged; report: %v", rep.Err())
	}

	mut = copySolution(sol)
	mut.Colors[0] = 5
	fixStats(mut)
	if rep := verify.Solution(nl, routes, in, mut, fixOpt); !rep.Has(verify.DVIBadColor) {
		t.Fatalf("color 5 not flagged; report: %v", rep.Err())
	}

	mut = copySolution(sol)
	mut.Inserted[0] = 7 // vias have at most 4 candidates
	fixStats(mut)
	if rep := verify.Solution(nl, routes, in, mut, fixOpt); !rep.Has(verify.DVIBadIndex) {
		t.Fatalf("out-of-range candidate index not flagged; report: %v", rep.Err())
	}
}

func TestMutationInfeasibleCandidate(t *testing.T) {
	nl, routes, in, sol := fixture(t)
	// Corrupt the instance itself: claim a far-away point is a
	// feasible candidate and insert there.
	mut := copySolution(sol)
	inMut := *in
	inMut.Feas = append([][]geom.Pt(nil), in.Feas...)
	far := geom.XY(in.Vias[0].Pos().X+5, in.Vias[0].Pos().Y)
	inMut.Feas[0] = append(append([]geom.Pt(nil), in.Feas[0]...), far)
	mut.Inserted[0] = len(inMut.Feas[0]) - 1
	mut.RedColors[0] = 0
	fixStats(mut)
	rep := verify.Solution(nl, routes, &inMut, mut, fixOpt)
	if !rep.Has(verify.DVIInfeasible) {
		t.Fatalf("non-adjacent candidate not flagged; report: %v", rep.Err())
	}
}

func TestMutationViaListMismatch(t *testing.T) {
	nl, routes, in, sol := fixture(t)
	if len(in.Vias) == 0 {
		t.Fatal("fixture has no vias")
	}
	inMut := *in
	inMut.Vias = in.Vias[1:]
	inMut.Feas = in.Feas[1:]
	mut := copySolution(sol)
	mut.Inserted = mut.Inserted[1:]
	mut.Colors = mut.Colors[1:]
	mut.RedColors = mut.RedColors[1:]
	fixStats(mut)
	rep := verify.Solution(nl, routes, &inMut, mut, fixOpt)
	if !rep.Has(verify.DVIViaMismatch) {
		t.Fatalf("dropped instance via not flagged; report: %v", rep.Err())
	}
}

// multiPinFixture runs the pipeline once on the smallest multi-pin
// circuit (pin counts uniform in [2, 6]), so routed Steiner trees with
// shared trunks are present. Returns the router-reported wirelength
// alongside the solution for metric cross-checks.
func multiPinFixture(t *testing.T) (*netlist.Netlist, []*grid.Route, int) {
	t.Helper()
	nl := bench.Generate(bench.TinyMultiPinSuite()[0])
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.HeurDVI,
	}
	row, art, err := bench.Run(nl, spec)
	if err != nil {
		t.Fatalf("bench.Run: %v", err)
	}
	return nl, art.Router.Routes(), row.WL
}

// TestMutationDroppedSteinerBranch: removing one branch of a k-pin
// net's routed tree must break connectivity — either a pin loses its
// metal entirely or the remaining geometry splits into components. The
// verifier sees only the pin set, so this is the check that k-pin
// solutions cannot silently drop a leaf.
func TestMutationDroppedSteinerBranch(t *testing.T) {
	nl, routes, _ := multiPinFixture(t)
	for i, r := range routes {
		if r == nil || len(nl.Nets[i].Pins) < 3 || len(r.Paths) < 2 {
			continue
		}
		for k := range r.Paths {
			mut := copyRoutes(routes)
			mut[i].Paths = append(mut[i].Paths[:k], mut[i].Paths[k+1:]...)
			rep := verify.Routing(nl, mut, fixOpt)
			if rep.Has(verify.PinMissing) || rep.Has(verify.Disconnected) {
				return
			}
		}
	}
	t.Fatal("no dropped branch of any k-pin net was flagged as pin-missing or disconnected")
}

// TestMutationCrossNetTrunkShare: trunk reuse is free within a net but
// never across nets. Grafting another net's wire onto a k-pin net's
// trunk metal must be flagged as a short.
func TestMutationCrossNetTrunkShare(t *testing.T) {
	nl, routes, _ := multiPinFixture(t)
	// Index the metal of multi-pin nets (the trunks under test).
	own := map[geom.Pt3]int32{}
	for i, r := range routes {
		if r == nil || len(nl.Nets[i].Pins) < 3 {
			continue
		}
		for _, p := range r.PointList() {
			own[p] = r.Net
		}
	}
	for _, r := range routes {
		if r == nil {
			continue
		}
		for _, p := range r.PointList() {
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				q := geom.XYL(p.X+d[0], p.Y+d[1], p.Layer)
				other, ok := own[q]
				if !ok || other == r.Net {
					continue
				}
				mut := copyRoutes(routes)
				mut[r.Net].Paths = append(mut[r.Net].Paths, []geom.Pt3{p, q})
				rep := verify.Routing(nl, mut, fixOpt)
				if !rep.Has(verify.MetalShort) {
					t.Fatalf("net %d grafted onto net %d's trunk at %v not flagged as short; report: %v",
						r.Net, other, q, rep.Err())
				}
				return
			}
		}
	}
	t.Fatal("no routed metal adjacent to a k-pin net's trunk found in fixture")
}

// TestMutationTrunkDoubleCountWL: the independent metric recount
// deduplicates per-net geometry, so a router that emitted the shared
// trunk once per branch (double-counting its wirelength) would
// disagree with verify.Metrics and be caught by the metrics
// cross-check. Establishes both halves: the recount matches the
// reported wirelength on the honest solution, and stays fixed when a
// trunk path is duplicated while a naive per-path sum inflates.
func TestMutationTrunkDoubleCountWL(t *testing.T) {
	nl, routes, reportedWL := multiPinFixture(t)
	wl, vias := verify.Metrics(routes)
	if wl != reportedWL {
		t.Fatalf("independent recount wl=%d disagrees with reported wl=%d on the honest solution", wl, reportedWL)
	}
	mut := copyRoutes(routes)
	dup := -1
	for i, r := range mut {
		if r == nil || len(nl.Nets[i].Pins) < 3 || len(r.Paths) < 2 {
			continue
		}
		if metalSteps(r.Paths[0]) > 0 {
			r.Paths = append(r.Paths, r.Paths[0])
			dup = i
			break
		}
	}
	if dup < 0 {
		t.Fatal("no k-pin net with a metal-bearing trunk path found in fixture")
	}
	wl2, vias2 := verify.Metrics(mut)
	if wl2 != wl || vias2 != vias {
		t.Fatalf("duplicated trunk changed the deduplicated recount: wl %d -> %d, vias %d -> %d", wl, wl2, vias, vias2)
	}
	naive := 0
	for _, r := range mut {
		if r == nil {
			continue
		}
		for _, p := range r.Paths {
			naive += metalSteps(p)
		}
	}
	if naive <= wl2 {
		t.Fatalf("naive per-path sum %d does not exceed deduplicated wl %d — double count invisible", naive, wl2)
	}
}

// TestMutationSelfTrunkReuseLegal: a net overlapping its own metal
// (the Steiner trunk shared by several branches) is legal — no short,
// no connectivity complaint, identical metrics.
func TestMutationSelfTrunkReuseLegal(t *testing.T) {
	nl, routes, _ := multiPinFixture(t)
	mut := copyRoutes(routes)
	for i, r := range mut {
		if r == nil || len(nl.Nets[i].Pins) < 3 || len(r.Paths) < 2 {
			continue
		}
		r.Paths = append(r.Paths, r.Paths[0])
		if err := verify.Routing(nl, mut, fixOpt).Err(); err != nil {
			t.Fatalf("self trunk reuse on net %d rejected: %v", i, err)
		}
		return
	}
	t.Fatal("no k-pin net with multiple paths found in fixture")
}

// metalSteps counts a path's same-layer unit steps.
func metalSteps(path []geom.Pt3) int {
	n := 0
	for i := 1; i < len(path); i++ {
		if path[i-1].Layer == path[i].Layer {
			n++
		}
	}
	return n
}

// handBuilt returns a 1-net netlist on an 8×8 two-layer grid plus a
// route covering its pins, built point by point for full control over
// the geometry under test.
func handBuilt(pins []geom.Pt, paths [][]geom.Pt3) (*netlist.Netlist, []*grid.Route) {
	nl := &netlist.Netlist{Name: "hand", W: 8, H: 8, NumLayers: 2}
	nl.Nets = append(nl.Nets, &netlist.Net{ID: 0, Name: "n0", Pins: pins})
	r := grid.NewRoute(0)
	for _, p := range paths {
		r.AddPath(p)
	}
	return nl, []*grid.Route{r}
}

func TestMutationFVPWindow(t *testing.T) {
	// A 2×2 block of vias is pairwise in conflict (K4), hence not
	// 3-colorable: the smallest forbidden via pattern.
	l0 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 0) }
	l1 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 1) }
	nl, routes := handBuilt(
		[]geom.Pt{geom.XY(0, 0), geom.XY(3, 0)},
		[][]geom.Pt3{
			{l0(0, 0), l0(1, 0), l0(2, 0), l0(3, 0)},
			{l0(1, 0), l0(1, 1)},
			{l0(2, 0), l0(2, 1)},
			{l0(1, 0), l1(1, 0)},
			{l0(2, 0), l1(2, 0)},
			{l0(1, 1), l1(1, 1)},
			{l0(2, 1), l1(2, 1)},
		},
	)
	rep := verify.Routing(nl, routes, fixOpt)
	if !rep.Has(verify.FVP) {
		t.Fatalf("2x2 via block not flagged as FVP; report: %v", rep.Err())
	}
	if !rep.Has(verify.NotThreeColorable) {
		t.Fatalf("2x2 via block (K4) not flagged as uncolorable; report: %v", rep.Err())
	}
	// Without TPL consideration the same geometry is legal.
	if err := verify.Routing(nl, routes, verify.Options{SADP: coloring.SIM}).Err(); err != nil {
		t.Fatalf("via block rejected with TPL checks off: %v", err)
	}
}

func TestMutationForbiddenTurn(t *testing.T) {
	l0 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 0) }
	// At an even/even point the preferred corner is NE (SIM) or SW
	// (SID); NW shares exactly one arm with either, so a W+N L-turn at
	// (2,2) is forbidden in both modes...
	nl, routes := handBuilt(
		[]geom.Pt{geom.XY(1, 2), geom.XY(2, 3)},
		[][]geom.Pt3{{l0(1, 2), l0(2, 2), l0(2, 3)}},
	)
	for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
		rep := verify.Routing(nl, routes, verify.Options{SADP: mode})
		if !rep.Has(verify.ForbiddenTurn) {
			t.Errorf("%v: NW turn at even/even point not flagged; report: %v", mode, rep.Err())
		}
	}
	// ...while the NE L-turn there is the preferred (SIM) or
	// non-preferred (SID) corner: legal in both.
	nl, routes = handBuilt(
		[]geom.Pt{geom.XY(3, 2), geom.XY(2, 3)},
		[][]geom.Pt3{{l0(3, 2), l0(2, 2), l0(2, 3)}},
	)
	for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
		if err := verify.Routing(nl, routes, verify.Options{SADP: mode}).Err(); err != nil {
			t.Errorf("%v: NE turn at even/even point wrongly rejected: %v", mode, err)
		}
	}
}

func TestMutationPinObstruction(t *testing.T) {
	nl, routes, _, _ := fixture(t)
	// Extend some net's layer-0 metal onto an adjacent foreign pin.
	pinNet := map[geom.Pt]int32{}
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			pinNet[p] = int32(n.ID)
		}
	}
	for _, r := range routes {
		for _, p := range r.PointList() {
			if p.Layer != 0 {
				continue
			}
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				q := geom.XY(p.X+d[0], p.Y+d[1])
				owner, isPin := pinNet[q]
				if !isPin || owner == r.Net {
					continue
				}
				mut := copyRoutes(routes)
				mut[r.Net].Paths = append(mut[r.Net].Paths, []geom.Pt3{p, geom.XYL(q.X, q.Y, 0)})
				rep := verify.Routing(nl, mut, fixOpt)
				if !rep.Has(verify.PinObstruction) && !rep.Has(verify.MetalShort) {
					t.Fatalf("net %d routed over net %d's pin at %v not flagged; report: %v",
						r.Net, owner, q, rep.Err())
				}
				return
			}
		}
	}
	t.Fatal("no foreign pin adjacent to routed metal found in fixture")
}

// TestColorabilityDecidesRoutedComponent holds the exact colorability
// fallback to a decision on the 43 vias a TPL-aware SID routing left
// in one conflict component of via layer 0 (stress -seed 7 -maxpins 6,
// trial 4136). The router colored them; the checker's greedy pass
// does not, and backtracking in discovery order spent its 2 000 000
// steps without a decision, which the checker reports as a verifier
// limit. Each via here is a net of its own.
func TestColorabilityDecidesRoutedComponent(t *testing.T) {
	sites := []int{
		22, 0, 24, 0, 23, 1, 23, 3, 24, 4, 22, 4, 21, 6, 20, 8, 21, 9, 23, 8, 24, 9,
		23, 11, 21, 12, 22, 14, 24, 15, 24, 16, 23, 15, 21, 15, 21, 17, 21, 19, 23, 20,
		19, 18, 17, 17, 18, 15, 15, 18, 15, 20, 13, 20, 12, 19, 10, 18, 14, 17, 13, 15,
		15, 14, 16, 12, 15, 11, 13, 10, 13, 13, 11, 15, 15, 17, 21, 13, 19, 11, 18, 9,
		20, 5, 22, 2,
	}
	nl := &netlist.Netlist{Name: "component", W: 25, H: 24, NumLayers: 2}
	var routes []*grid.Route
	for i := 0; i < len(sites); i += 2 {
		x, y := sites[i], sites[i+1]
		id := len(routes)
		nl.Nets = append(nl.Nets, &netlist.Net{ID: id, Name: "v", Pins: []geom.Pt{geom.XY(x, y)}})
		r := grid.NewRoute(int32(id))
		r.AddPath([]geom.Pt3{geom.XYL(x, y, 0), geom.XYL(x, y, 1)})
		routes = append(routes, r)
	}
	rep := verify.Routing(nl, routes, verify.Options{SADP: coloring.SID, CheckTPL: true})
	if rep.Has(verify.VerifierLimit) || rep.Has(verify.NotThreeColorable) || rep.Has(verify.FVP) {
		t.Fatalf("the routed component is 3-colorable and FVP-free; report: %v", rep.Err())
	}
}
