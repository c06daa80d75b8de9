package router

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/tpl"
)

// wheelEscapes gives each via of tpl.WheelPattern(hub, tpl.WheelRim),
// in order, a straight layer-1 wire out of the wheel: its direction
// and its length. No two wires meet, and their far ends sit outside
// each other's same-color pitch.
var wheelEscapes = []struct {
	d   geom.Dir
	len int
}{
	{geom.East, 5},  // hub (0,0)
	{geom.West, 6},  // (-2,-1)
	{geom.West, 3},  // (-2,0)
	{geom.North, 5}, // (0,1)
	{geom.East, 8},  // (1,-1)
	{geom.South, 5}, // (0,-2)
}

// wheelCircuit builds six two-pin nets, one per via of the Fig 11
// wheel around hub, and their hand-built routes: up a via at the wheel
// pin, a straight layer-1 wire, and down a via at the far pin. Two more
// nets cross on layer 0 at cross, far from the wheel: a congestion the
// fix-up leaves to the TPL phase.
func wheelCircuit(hub, cross geom.Pt) (*netlist.Netlist, [][]geom.Pt3) {
	nl := &netlist.Netlist{Name: "wheel", W: 24, H: 24, NumLayers: 2}
	var paths [][]geom.Pt3
	for i, w := range tpl.WheelPattern(hub, tpl.WheelRim) {
		e := wheelEscapes[i]
		path := []geom.Pt3{geom.XYL(w.X, w.Y, 0), geom.XYL(w.X, w.Y, 1)}
		p := w
		for k := 0; k < e.len; k++ {
			p = p.Step(e.d)
			path = append(path, geom.XYL(p.X, p.Y, 1))
		}
		path = append(path, geom.XYL(p.X, p.Y, 0))
		nl.Nets = append(nl.Nets, &netlist.Net{ID: i, Name: "w" + itoa(i), Pins: []geom.Pt{w, p}})
		paths = append(paths, path)
	}
	for _, d := range []geom.Pt{geom.XY(1, 0), geom.XY(0, 1)} {
		var path []geom.Pt3
		for k := -3; k <= 3; k++ {
			path = append(path, geom.XYL(cross.X+k*d.X, cross.Y+k*d.Y, 0))
		}
		id := len(nl.Nets)
		pins := []geom.Pt{path[0].Pt2(), path[len(path)-1].Pt2()}
		nl.Nets = append(nl.Nets, &netlist.Net{ID: id, Name: "x" + itoa(id), Pins: pins})
		paths = append(paths, path)
	}
	return nl, paths
}

// TestColorFixUpRipsWheel drives the 3-colorability fix-up (§III-D),
// which no golden or benchmark circuit reaches: six committed routes
// whose vias form an FVP-free, uncolorable wheel must come out of
// ensureColorable colorable, FVP-free and congestion-free. A crossing
// elsewhere makes the fix-up re-enter the TPL phase, whose iterations
// must add to the count an earlier phase left.
func TestColorFixUpRipsWheel(t *testing.T) {
	nl, paths := wheelCircuit(geom.XY(12, 12), geom.XY(4, 4))
	rt, err := New(nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true})
	if err != nil {
		t.Fatal(err)
	}
	for id, path := range paths {
		r := grid.NewRoute(int32(id))
		r.AddPath(path)
		rt.routes[id] = r
		rt.g.AddRoute(r)
		rt.applyNetCosts(int32(id))
	}
	for vl, lv := range rt.g.Vias {
		if lv.HasFVP() {
			t.Fatalf("via layer %d of the wheel holds an FVP", vl)
		}
	}
	if len(rt.uncolorableVias()) == 0 {
		t.Fatal("the wheel is colorable")
	}

	// The state an earlier TPL phase leaves: its flag on, the FVP set
	// exact (empty: the wheel holds no FVP), and its count, which a
	// re-entry must add to.
	rt.tplPhase = true
	const earlier = 7
	rt.stats.TPLRRIterations = earlier
	calls, entries := 0, 0
	rt.debugTPLIter = func(iter int) {
		calls++
		if iter == 0 {
			entries++
		}
	}
	if err := rt.ensureColorable(); err != nil {
		t.Fatal(err)
	}
	if unc := rt.uncolorableVias(); len(unc) != 0 {
		t.Fatalf("%d uncolorable vias after the fix-up: %v", len(unc), unc)
	}
	if rt.stats.ColorFixIterations == 0 {
		t.Fatal("the fix-up ripped no net")
	}
	if entries == 0 || calls == entries {
		t.Fatalf("the fix-up re-entered the TPL phase %d times for %d iterations, want a re-entry with work",
			entries, calls-entries)
	}
	// A phase that returns at iteration k observed k+1 iterations.
	if want := earlier + calls - entries; rt.stats.TPLRRIterations != want {
		t.Fatalf("TPLRRIterations = %d after %d re-entries, want %d", rt.stats.TPLRRIterations, entries, want)
	}
	t.Logf("the fix-up ripped %d nets and re-entered the TPL phase %d times for %d iterations",
		rt.stats.ColorFixIterations, entries, calls-entries)
	rt.collectStats()
	checkSolution(t, rt, nl)
}
