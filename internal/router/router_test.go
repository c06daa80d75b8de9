package router

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// randomNetlist builds a deterministic random netlist with locality:
// pins of one net cluster in a window, like placed standard cells.
func randomNetlist(name string, w, h, nets int, seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	nl := &netlist.Netlist{Name: name, W: w, H: h, NumLayers: 2}
	used := map[geom.Pt]bool{} // pins are globally distinct, as in real placements
	for i := 0; i < nets; i++ {
		n := &netlist.Net{ID: i, Name: name + "-n" + itoa(i)}
		cx, cy := rng.Intn(w), rng.Intn(h)
		span := 3 + rng.Intn(8)
		pins := 2 + rng.Intn(3)
		for tries := 0; len(n.Pins) < pins && tries < 1000; tries++ {
			p := geom.XY(clamp(cx+rng.Intn(2*span)-span, 0, w-1), clamp(cy+rng.Intn(2*span)-span, 0, h-1))
			if !used[p] {
				used[p] = true
				n.Pins = append(n.Pins, p)
			}
		}
		nl.Nets = append(nl.Nets, n)
	}
	return nl
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// checkSolution verifies the hard invariants of a routing solution.
func checkSolution(t *testing.T, rt *Router, nl *netlist.Netlist) {
	t.Helper()
	g := rt.Grid()
	// 1. Every net routed and connected to all its pins.
	for i, n := range nl.Nets {
		r := rt.Routes()[i]
		if r == nil || r.Empty() {
			t.Fatalf("net %q unrouted", n.Name)
		}
		var pins []geom.Pt3
		for _, p := range n.Pins {
			pins = append(pins, geom.XYL(p.X, p.Y, 0))
		}
		if !r.Connected(pins) {
			t.Fatalf("net %q not connected to all pins", n.Name)
		}
	}
	// 2. Congestion-free.
	if cong := g.Congestions(); len(cong) != 0 {
		t.Fatalf("%d congested points remain, e.g. %v", len(cong), cong[0])
	}
	// 3. No forbidden turns anywhere.
	scheme := rt.cfg.Scheme
	for i, r := range rt.Routes() {
		for _, p := range r.PointList() {
			dirs := r.MetalDirs(p)
			for a := 0; a < len(dirs); a++ {
				for b := a + 1; b < len(dirs); b++ {
					c, ok := coloring.CornerOf(dirs[a], dirs[b])
					if !ok {
						continue
					}
					if len(dirs) > 2 {
						continue // T-junctions are not L-turns
					}
					if scheme.Turn(p.Pt2(), c) == coloring.Forbidden {
						t.Fatalf("net %d has forbidden turn at %v (%v)", i, p, c)
					}
				}
			}
		}
	}
	// 4. With TPL consideration: no FVPs and 3-colorable via layers
	// (exact check per component; greedy may be pessimistic).
	if rt.cfg.ConsiderTPL {
		for vl, lv := range g.Vias {
			if lv.HasFVP() {
				t.Fatalf("via layer %d contains an FVP", vl)
			}
		}
		if unc := rt.uncolorableVias(); len(unc) != 0 {
			t.Fatalf("%d uncolorable vias: %v", len(unc), unc)
		}
	}
	// 5. Stats agree with the routes.
	st := rt.Stats()
	if st.Routability != 1.0 {
		t.Fatalf("routability %v", st.Routability)
	}
	wl, vias := 0, 0
	for _, r := range rt.Routes() {
		wl += r.Wirelength()
		vias += r.NumVias()
	}
	if st.Wirelength != wl || st.Vias != vias {
		t.Fatalf("stats mismatch: %d/%d vs %d/%d", st.Wirelength, st.Vias, wl, vias)
	}
}

func route(t *testing.T, nl *netlist.Netlist, cfg Config) *Router {
	t.Helper()
	rt, err := New(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRouteSingleNet(t *testing.T) {
	nl := &netlist.Netlist{Name: "one", W: 16, H: 16, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []geom.Pt{geom.XY(2, 2), geom.XY(10, 9)}},
	}}
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	checkSolution(t, rt, nl)
	r := rt.Routes()[0]
	// Manhattan lower bound: |dx|+|dy| = 15.
	if r.Wirelength() < 15 {
		t.Errorf("wirelength %d below Manhattan bound", r.Wirelength())
	}
	if r.Wirelength() > 25 {
		t.Errorf("wirelength %d wildly above bound 15", r.Wirelength())
	}
}

func TestRouteMultiPinNet(t *testing.T) {
	nl := &netlist.Netlist{Name: "multi", W: 20, H: 20, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []geom.Pt{
			geom.XY(2, 2), geom.XY(15, 2), geom.XY(8, 16), geom.XY(3, 12),
		}},
	}}
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SID}})
	checkSolution(t, rt, nl)
}

func TestCrossingNetsResolveCongestion(t *testing.T) {
	// Two nets whose straight-line routes must cross; they can share
	// no grid point, so at least one via pair or detour is needed.
	nl := &netlist.Netlist{Name: "cross", W: 12, H: 12, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "h", Pins: []geom.Pt{geom.XY(1, 5), geom.XY(10, 5)}},
		{ID: 1, Name: "v", Pins: []geom.Pt{geom.XY(5, 1), geom.XY(5, 10)}},
	}}
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	checkSolution(t, rt, nl)
}

func TestDensePinCluster(t *testing.T) {
	// Many nets competing in a small area force R&R to work.
	nl := randomNetlist("dense", 24, 24, 30, 7)
	for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
		rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: scheme}})
		checkSolution(t, rt, nl)
	}
}

func TestAllFourConfigs(t *testing.T) {
	nl := randomNetlist("cfg", 32, 32, 40, 21)
	for _, dvi := range []bool{false, true} {
		for _, tplOn := range []bool{false, true} {
			cfg := Config{
				Scheme:      coloring.Scheme{Type: coloring.SIM},
				ConsiderDVI: dvi,
				ConsiderTPL: tplOn,
			}
			rt := route(t, nl, cfg)
			checkSolution(t, rt, nl)
		}
	}
}

func TestTPLRemovesAllFVPs(t *testing.T) {
	// Dense enough that the baseline router produces FVPs (the same
	// instance routed without TPL consideration leaves ~22 of them).
	nl := randomNetlist("d", 24, 24, 40, 3)
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderTPL: true}
	rt := route(t, nl, cfg)
	checkSolution(t, rt, nl)
	for vl, lv := range rt.Grid().Vias {
		if lv.HasFVP() {
			t.Fatalf("FVP remains on layer %d", vl)
		}
	}
}

func TestBaselineMayLeaveTPLViolations(t *testing.T) {
	// The experiment's premise (Tables III/IV, first column): without
	// TPL consideration, a dense instance leaves TPL violations on the
	// via layers.
	nl := randomNetlist("d", 24, 24, 40, 3)
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	if rt.Stats().Routability != 1 {
		t.Fatal("baseline failed routability")
	}
	fvps := 0
	for _, lv := range rt.Grid().Vias {
		fvps += len(lv.AllFVPs())
	}
	if fvps == 0 {
		t.Error("expected baseline FVPs on this dense instance")
	}
}

func TestDVIConfigKeepsInvariants(t *testing.T) {
	nl := randomNetlist("dvi", 32, 32, 45, 5)
	cfg := Config{
		Scheme:      coloring.Scheme{Type: coloring.SID},
		ConsiderDVI: true,
		ConsiderTPL: true,
	}
	rt := route(t, nl, cfg)
	checkSolution(t, rt, nl)
}

func TestDeterminism(t *testing.T) {
	nl := randomNetlist("det", 24, 24, 25, 13)
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true, Seed: 5}
	a := route(t, nl, cfg)
	b := route(t, nl, cfg)
	if a.Stats() != b.Stats() {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

func TestLedgerRevertExact(t *testing.T) {
	// Routing every net once (no history yet) then ripping every net
	// must return every price to zero.
	nl := randomNetlist("ledger", 20, 20, 15, 17)
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true}
	rt, err := New(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.routeInOrder(hpwlOrder(nl.Nets)); err != nil {
		t.Fatal(err)
	}
	if rt.Grid().TotalVias() == 0 {
		t.Fatal("first pass placed no via")
	}
	for i := range nl.Nets {
		rt.ripUp(int32(i))
	}
	for l, arr := range rt.metalPrice {
		for pi, v := range arr {
			if v != 0 {
				t.Fatalf("metalPrice[%d][%d] = %d after full rip-up", l, pi, v)
			}
		}
	}
	for vl, arr := range rt.viaPrice {
		for pi, v := range arr {
			if v != 0 {
				t.Fatalf("viaPrice[%d][%d] = %d after full rip-up", vl, pi, v)
			}
		}
	}
	if rt.Grid().TotalVias() != 0 {
		t.Fatal("vias remain after full rip-up")
	}
}

func TestUnroutableNetlistErrors(t *testing.T) {
	// Two nets sharing pin (0,0) would be permanently congested; New
	// refuses them before any routing round is spent.
	nl := &netlist.Netlist{Name: "tiny", W: 2, H: 2, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(0, 1)}},
		{ID: 1, Name: "b", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(1, 1)}},
	}}
	if _, err := New(nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}}); !errors.Is(err, netlist.ErrSharedPin) {
		t.Fatalf("New: got %v, want netlist.ErrSharedPin", err)
	}
}

func TestInvalidNetlistRejected(t *testing.T) {
	nl := &netlist.Netlist{Name: "bad", W: 0, H: 4, NumLayers: 2}
	if _, err := New(nl, Config{}); err == nil {
		t.Fatal("invalid netlist accepted")
	}
}

func TestStatsOverheadShape(t *testing.T) {
	// The paper's headline overhead claim: considering DVI + TPL costs
	// only a few percent wirelength/vias. Verify the shape loosely on
	// a mid-density instance: overhead below 25%.
	nl := randomNetlist("ovh", 40, 40, 60, 29)
	base := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	full := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true})
	bw, fw := float64(base.Stats().Wirelength), float64(full.Stats().Wirelength)
	if fw > bw*1.25 {
		t.Errorf("wirelength overhead too large: %v vs %v", fw, bw)
	}
	bv, fv := float64(base.Stats().Vias), float64(full.Stats().Vias)
	if fv > bv*1.35 {
		t.Errorf("via overhead too large: %v vs %v", fv, bv)
	}
}
