package router

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
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

// Fig 10 / Algorithm 2 line 2: with TPL consideration, via sites whose
// use would create an FVP are blocked during the TPL R&R phase.
func TestBlockedViaSites(t *testing.T) {
	nl := randomNetlist("blk", 24, 24, 40, 3)
	rt, err := New(nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderTPL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// After the run, the blocked set must be exactly the
	// would-create-FVP predicate on unoccupied sites.
	for vl, lv := range rt.g.Vias {
		for y := 0; y < nl.H; y++ {
			for x := 0; x < nl.W; x++ {
				p := geom.XY(x, y)
				want := !lv.Has(p) && lv.WouldCreateFVP(p)
				if got := rt.blockVia[vl][rt.g.PIdx(p)]; got != want {
					t.Fatalf("blockVia[%d]%v = %v, want %v", vl, p, got, want)
				}
			}
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
