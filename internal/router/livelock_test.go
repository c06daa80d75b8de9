package router

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coloring"
	"repro/internal/netlist"
)

// TestTPLCongestionUnblocks routes two 34-net jobs whose TPL phase
// used to trade one short for another until its iteration cap. In
// c0-0080 (SIM), nets 3 and 17 have pins in the grid's corner whose
// own via sites FVP avoidance blocks, so both must leave on layer 0
// through the same two cells; c1-0245 (SID) stalled the same way.
// Both must route clean once persistent congestion lifts the blocks.
func TestTPLCongestionUnblocks(t *testing.T) {
	for _, tc := range []struct {
		file   string
		scheme coloring.SADPType
	}{{"c0-0080.net", coloring.SIM}, {"c1-0245.net", coloring.SID}} {
		f, err := os.Open(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		nl, err := netlist.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: tc.scheme}, ConsiderDVI: true, ConsiderTPL: true})
		checkSolution(t, rt, nl)
	}
}
