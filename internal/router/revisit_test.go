package router

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// TestRevisitedPointKeepsTurnsLegal routes a ten-net SIM job (stress
// -seed 7 -maxpins 6, trial 4136, shrunk) whose net 1 must reach pin
// (24,3) from (23,1). Its cheapest path came north to (23,3,m0), where
// SIM forbids an S|E L, climbed to m1, turned around at (22,11) and
// landed on (23,3,m0) again to leave east: each visit was legal on its
// own, and together they left the forbidden L. The route must be
// clean.
func TestRevisitedPointKeepsTurnsLegal(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "revisit-turn.net"))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true})
	checkSolution(t, rt, nl)
}

// TestRevisitTurnNamesFirstSwitch checks revisitTurn on hand-made paths
// that visit (3,3,m0) twice, one arm each time, in a forbidden L. It
// names the point and bans the first visit's switch: getting onto the
// wire where the path starts there, getting off it by via where the
// path arrives on the wire. Without the second visit, or with the two
// arms in line, nothing is banned.
func TestRevisitTurnNamesFirstSwitch(t *testing.T) {
	nl := &netlist.Netlist{Name: "revisit", W: 8, H: 8, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "n0", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(7, 7)}},
	}}
	rt, err := New(nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.newSearcher()
	s.search.reset(rt.g.Bounds(), rt.g.NumLayers)
	p := geom.XYL(3, 3, 0)
	// Two arms of p that SIM forbids as an L there.
	var d1, d2 geom.Dir
	for _, a := range geom.PlanarDirs {
		for _, b := range geom.PlanarDirs {
			if rt.turnTab[p.X&1|(p.Y&1)<<1][armBit(a)|armBit(b)] == forbiddenTurn {
				d1, d2 = a, b
			}
		}
	}
	if d1 == geom.None {
		t.Fatal("no forbidden L at (3,3)")
	}
	up := func(q geom.Pt3) geom.Pt3 { return geom.XYL(q.X, q.Y, 1) }
	a, b := p.Step(d1), p.Step(d2)
	for _, tc := range []struct {
		name string
		path []geom.Pt3
		ban  uint8
	}{
		{"start then landing", []geom.Pt3{p, a, up(a), up(p), p, b}, banOnto},
		{"climb then landing", []geom.Pt3{a, p, up(p), up(b), up(p), p, b}, banOff},
		{"one visit", []geom.Pt3{a, p, b}, 0},
		{"straight across two visits", []geom.Pt3{a, p, up(p), up(b), up(p), p, p.Step(d1.Opposite())}, 0},
	} {
		at, ban := s.revisitTurn(tc.path)
		if ban != tc.ban || ban != 0 && at != p {
			t.Errorf("%s: revisitTurn = %v, ban %d; want %v, ban %d", tc.name, at, ban, p, tc.ban)
		}
	}
}
