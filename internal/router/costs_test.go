package router

import (
	"slices"
	"testing"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/tpl"
)

// Route a single L-shaped net with one via and inspect exactly which
// costs Algorithm 1 assigned where. A lone net meets no congestion and
// no FVP, so no history is bumped: every price is the cost assigned
// there.
func costProbe(t *testing.T, considerDVI, considerTPL bool) *Router {
	t.Helper()
	nl := &netlist.Netlist{Name: "probe", W: 20, H: 20, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []geom.Pt{geom.XY(3, 8), geom.XY(9, 14)}},
	}}
	rt, err := New(nl, Config{
		Scheme:      coloring.Scheme{Type: coloring.SIM},
		ConsiderDVI: considerDVI,
		ConsiderTPL: considerTPL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.RRIterations+st.FVPsResolved+st.ColorFixIterations != 0 {
		t.Fatalf("probe ripped a net, bumping history: %+v", st)
	}
	return rt
}

func TestNoCostsWithoutConsideration(t *testing.T) {
	rt := costProbe(t, false, false)
	for l := range rt.metalPrice {
		for pi, v := range rt.metalPrice[l] {
			if v != 0 {
				t.Fatalf("metalPrice[%d][%d] = %d with all considerations off", l, pi, v)
			}
		}
	}
	for vl := range rt.viaPrice {
		for pi, v := range rt.viaPrice[vl] {
			if v != 0 {
				t.Fatalf("viaPrice[%d][%d] = %d with all considerations off", vl, pi, v)
			}
		}
	}
}

// BDC: every feasible DVIC of the routed net's via carries
// α·CostScale/#feasible on the via layer and on both metal layers.
func TestBDCAssignedAtFeasibleDVICs(t *testing.T) {
	rt := costProbe(t, true, false)
	r := rt.Routes()[0]
	vias := dvi.ViasOf(r)
	if len(vias) == 0 {
		t.Skip("probe routed without vias")
	}
	f := dvi.Feasibility{G: rt.Grid()}
	P := rt.cfg.Params
	for _, v := range vias {
		feas := f.FeasibleDVICs(r, v)
		if len(feas) == 0 {
			continue
		}
		bdc := P.Alpha * CostScale / int64(len(feas))
		for _, c := range feas {
			pi := rt.g.PIdx(c)
			if rt.viaPrice[v.Layer()][pi] < bdc {
				t.Errorf("via site %v: price %d < BDC %d", c, rt.viaPrice[v.Layer()][pi], bdc)
			}
			if rt.metalPrice[v.Base.Layer][pi] < bdc {
				t.Errorf("metal %d at %v: price %d < BDC %d",
					v.Base.Layer, c, rt.metalPrice[v.Base.Layer][pi], bdc)
			}
			if rt.metalPrice[v.Base.Layer+1][pi] < bdc {
				t.Errorf("metal %d at %v: price %d < BDC %d",
					v.Base.Layer+1, c, rt.metalPrice[v.Base.Layer+1][pi], bdc)
			}
		}
	}
}

// AMC: via sites bordering the net's metal carry at least the
// along-metal constant.
func TestAMCAlongMetal(t *testing.T) {
	rt := costProbe(t, true, false)
	r := rt.Routes()[0]
	P := rt.cfg.Params
	found := false
	for _, p := range r.PointList() {
		for _, d := range geom.PlanarDirs {
			q := p.Pt2().Step(d)
			if !rt.g.InPlane(q) {
				continue
			}
			for _, vl := range [2]int{p.Layer - 1, p.Layer} {
				if vl < 0 || vl >= rt.g.NumLayers-1 {
					continue
				}
				if rt.viaPrice[vl][rt.g.PIdx(q)] >= P.AMC*CostScale {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no along-metal costs found next to routed wire")
	}
}

// CDC: the neighbors of a feasible DVIC (other than the via itself)
// carry the conflict-DVIC cost.
func TestCDCAroundDVICs(t *testing.T) {
	rt := costProbe(t, true, false)
	r := rt.Routes()[0]
	f := dvi.Feasibility{G: rt.Grid()}
	P := rt.cfg.Params
	for _, v := range dvi.ViasOf(r) {
		feas := f.FeasibleDVICs(r, v)
		if len(feas) == 0 {
			continue
		}
		cdc := P.Beta * CostScale / int64(len(feas))
		for _, c := range feas {
			for _, off := range dvi.DVICOffsets {
				w := c.Add(off.X, off.Y)
				if w == v.Pos() || !rt.g.InPlane(w) {
					continue
				}
				if rt.viaPrice[v.Layer()][rt.g.PIdx(w)] < cdc {
					t.Errorf("conflict-DVIC site %v: price %d < CDC %d",
						w, rt.viaPrice[v.Layer()][rt.g.PIdx(w)], cdc)
				}
			}
		}
	}
}

// TPLC: every via location within the same-color pitch of the routed
// via is priced at γ × its conflict count, so at least γ.
func TestTPLCConflictCounts(t *testing.T) {
	rt := costProbe(t, false, true)
	r := rt.Routes()[0]
	tplc := rt.cfg.Params.Gamma * CostScale
	for _, v := range dvi.ViasOf(r) {
		for _, off := range tpl.ConflictOffsets {
			q := v.Pos().Add(off.X, off.Y)
			if !rt.g.InPlane(q) {
				continue
			}
			if got := rt.viaPrice[v.Layer()][rt.g.PIdx(q)]; got < tplc {
				t.Errorf("via site %v near via %v: price %d < TPLC %d", q, v.Pos(), got, tplc)
			}
		}
	}
}

// fvpSiteCircuit builds three nets whose hand-built routes hold vias
// at site+(−1,−1), site+(0,−1) and site+(−1,0), each climbing at its
// pin and running on layer 1 to a via at its far pin, so a fourth via
// at site completes FVP windows. The last net, "t", runs from site ten
// tracks north: its cheapest path climbs at site and follows layer 1's
// preferred direction. With walled set, two more nets put pins east
// and north of site, so that with the other two pins to its west and
// south, t can leave its pin only by the via at site.
func fvpSiteCircuit(site geom.Pt, walled bool) (*netlist.Netlist, [][]geom.Pt3) {
	nl := &netlist.Netlist{Name: "fvpsite", W: 24, H: 24, NumLayers: 2}
	var paths [][]geom.Pt3
	add := func(path []geom.Pt3) {
		id := len(nl.Nets)
		pins := []geom.Pt{path[0].Pt2(), path[len(path)-1].Pt2()}
		nl.Nets = append(nl.Nets, &netlist.Net{ID: id, Name: "n" + itoa(id), Pins: pins})
		paths = append(paths, path)
	}
	for _, b := range []struct{ dx, dy, dir int }{{-1, -1, -1}, {0, -1, -1}, {-1, 0, 1}} {
		p := site.Add(b.dx, b.dy)
		path := []geom.Pt3{geom.XYL(p.X, p.Y, 0)}
		for k := 0; k <= 6; k++ {
			path = append(path, geom.XYL(p.X, p.Y+b.dir*k, 1))
		}
		add(append(path, geom.XYL(p.X, p.Y+b.dir*6, 0)))
	}
	if walled {
		for _, dx := range []int{1, -1} {
			// East on row site.Y from site+(1,0); west on the row above
			// from site+(0,1).
			p := site.Add(max(dx, 0), max(-dx, 0))
			var path []geom.Pt3
			for k := 0; k <= 4; k++ {
				path = append(path, geom.XYL(p.X+dx*k, p.Y, 0))
			}
			add(path)
		}
	}
	nl.Nets = append(nl.Nets, &netlist.Net{ID: len(nl.Nets), Name: "t", Pins: []geom.Pt{site, site.Add(0, 10)}})
	return nl, paths
}

// Fig 10 / Algorithm 2 line 2: in the TPL phase the search refuses a
// via site whose use would create an FVP, by asking the via layer
// (tpl.LayerVias.WouldCreateFVP) at every via it considers. In the
// first pass, and while the blocks are lifted, it does not. A net the
// blocks wall in fails its blocked attempt and routeInOrder routes it
// again without them. Either way an FVP a route creates in the TPL
// phase enters the FVP set, and leaves it when the route is ripped.
func TestFVPBlocksAreAQuery(t *testing.T) {
	site := geom.XY(11, 11)
	for _, tc := range []struct {
		name    string
		walled  bool
		tpl     bool // enter the TPL phase before routing t
		lifted  bool // ignoreBlocks
		wantVia bool // t climbs at site
	}{
		{name: "first pass", wantVia: true},
		{name: "TPL phase", tpl: true},
		{name: "TPL phase, blocks lifted", tpl: true, lifted: true, wantVia: true},
		{name: "TPL phase, walled in", walled: true, tpl: true, wantVia: true},
	} {
		nl, paths := fvpSiteCircuit(site, tc.walled)
		rt, err := New(nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
		if err != nil {
			t.Fatal(err)
		}
		for id, path := range paths {
			r := grid.NewRoute(int32(id))
			r.AddPath(path)
			rt.routes[id] = r
			rt.g.AddRoute(r)
		}
		if !rt.g.Vias[0].WouldCreateFVP(site) {
			t.Fatalf("%s: a via at %v would create no FVP", tc.name, site)
		}
		if tc.tpl {
			// Nothing to resolve: the phase only turns its blocks on.
			if err := rt.removeTPLViolations(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		rt.ignoreBlocks = tc.lifted
		id := int32(len(nl.Nets) - 1)
		if err := rt.rerouteNet(id, "reroute"); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rt.ignoreBlocks != tc.lifted {
			t.Fatalf("%s: ignoreBlocks is %v after the reroute", tc.name, rt.ignoreBlocks)
		}
		if got := slices.Contains(rt.routes[id].ViaList(), geom.XYL(site.X, site.Y, 0)); got != tc.wantVia {
			t.Fatalf("%s: t climbs at %v: %v, want %v (vias %v)", tc.name, site, got, tc.wantVia, rt.routes[id].ViaList())
		}
		fvps := len(rt.g.Vias[0].AllFVPs())
		if (fvps > 0) != tc.wantVia {
			t.Fatalf("%s: %d FVP windows after routing t", tc.name, fvps)
		}
		if tc.tpl && len(rt.fvps) != fvps {
			t.Fatalf("%s: the FVP set holds %d windows, the grid %d", tc.name, len(rt.fvps), fvps)
		}
		// Ripping t removes the windows its via completed.
		rt.ripUp(id)
		if len(rt.fvps) != 0 {
			t.Fatalf("%s: the FVP set holds %d windows after t was ripped", tc.name, len(rt.fvps))
		}
	}
}

// The turn-state search never produces a U-turn or an up-down via pump
// in any path.
func TestNoDegeneratePathShapes(t *testing.T) {
	nl := randomNetlist("deg", 24, 24, 30, 23)
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SID}, ConsiderDVI: true, ConsiderTPL: true})
	for _, r := range rt.Routes() {
		for _, path := range r.Paths {
			for i := 2; i < len(path); i++ {
				d1 := path[i-2].DirTo(path[i-1])
				d2 := path[i-1].DirTo(path[i])
				if d1.Planar() && d2 == d1.Opposite() {
					t.Fatalf("U-turn at %v", path[i-1])
				}
				if d1.Via() && d2 == d1.Opposite() {
					t.Fatalf("via pump at %v", path[i-1])
				}
			}
		}
	}
}
