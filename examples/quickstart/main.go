// Quickstart: route a small placed netlist with full DVI and via-layer
// TPL consideration, insert redundant vias, and verify the result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/netlist"

	sadproute "repro"
)

func main() {
	// A hand-placed netlist: 6 nets on a 24×24 grid, two routing
	// layers (metal 2 horizontal, metal 3 vertical).
	nl := &netlist.Netlist{Name: "quickstart", W: 24, H: 24, NumLayers: 2, Nets: []*netlist.Net{
		{ID: 0, Name: "clk", Pins: []geom.Pt{geom.XY(2, 2), geom.XY(18, 2), geom.XY(18, 14)}},
		{ID: 1, Name: "d0", Pins: []geom.Pt{geom.XY(3, 5), geom.XY(12, 9)}},
		{ID: 2, Name: "d1", Pins: []geom.Pt{geom.XY(5, 3), geom.XY(5, 17)}},
		{ID: 3, Name: "q0", Pins: []geom.Pt{geom.XY(9, 6), geom.XY(16, 18)}},
		{ID: 4, Name: "rst", Pins: []geom.Pt{geom.XY(2, 20), geom.XY(20, 20), geom.XY(10, 12)}},
		{ID: 5, Name: "en", Pins: []geom.Pt{geom.XY(14, 4), geom.XY(7, 13)}},
	}}

	res, err := sadproute.Route(nl, sadproute.Config{
		SADP:        coloring.SIM,
		ConsiderDVI: true,
		ConsiderTPL: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routed %q: routability %.0f%%, wirelength %d, vias %d\n",
		nl.Name, res.Stats.Routability*100, res.Stats.Wirelength, res.Stats.Vias)

	// Post-routing TPL-aware double via insertion (fast heuristic).
	sol, err := res.InsertDoubleVias(sadproute.Heuristic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DVI: %d redundant vias inserted, %d dead vias, %d uncolorable\n",
		sol.InsertedCount, sol.DeadVias, sol.Uncolorable)

	// End-to-end validation: the metal layers must still decompose
	// into SADP masks.
	dec := res.CheckDecomposition()
	fmt.Printf("SADP mask check: %d hard violations (%d total findings)\n",
		len(dec.HardViolations()), len(dec.Violations))
	for l, m := range dec.Layers {
		fmt.Printf("  metal %d: %d mandrel segments, %d spacer wires, %d cut shapes\n",
			l+2, len(m.Mandrel), len(m.SpacerWires), len(m.CutShapes))
	}
}
