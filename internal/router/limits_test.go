package router

import (
	"errors"
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/netlist"
)

func twoPinNetlist(w, h, layers int) *netlist.Netlist {
	return &netlist.Netlist{Name: "lim", W: w, H: h, NumLayers: layers, Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(w-1, h-1)}},
	}}
}

// TestGridTooLarge: grids past the packed-coordinate or state-id limits
// fail New with ErrGridTooLarge before anything is allocated, instead
// of panicking inside the search.
func TestGridTooLarge(t *testing.T) {
	for _, c := range []struct{ w, h, layers int }{
		{MaxTracks + 1, 2, 2},
		{2, MaxTracks + 1, 2},
		{4, 4, MaxLayers + 1},
		{MaxTracks, MaxTracks, 2}, // 2^29 points · 7 states > MaxInt32
	} {
		_, err := New(twoPinNetlist(c.w, c.h, c.layers), Config{})
		if !errors.Is(err, ErrGridTooLarge) {
			t.Errorf("%dx%dx%d: err %v, want ErrGridTooLarge", c.w, c.h, c.layers, err)
		}
	}
	for _, c := range []struct{ w, h, layers int }{
		{MaxTracks, 4, 2}, {4, MaxTracks, 2}, {4, 4, MaxLayers}, {1 << 12, 1 << 12, 16},
	} {
		if err := CheckGrid(c.w, c.h, c.layers); err != nil {
			t.Errorf("%dx%dx%d is within the limits: %v", c.w, c.h, c.layers, err)
		}
	}
	if err := CheckGrid(1<<12, 1<<12, 17); err == nil {
		t.Error("17 layers accepted")
	}
}

// TestGridAtTrackLimitRoutes: a net spanning the full MaxTracks width
// routes — the largest accepted coordinates fit packXYL.
func TestGridAtTrackLimitRoutes(t *testing.T) {
	nl := twoPinNetlist(MaxTracks, 4, 2)
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	pins := []geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(MaxTracks-1, 3, 0)}
	if !rt.Routes()[0].Connected(pins) {
		t.Fatal("net across the full track limit is not connected")
	}
}

// TestSearchScratchGrowth: windows growing one state-column at a time
// from 1 to 10^5 states reallocate the scratch at most ⌈log₂ 10^5⌉
// times, and the scratch stays within twice the largest window.
func TestSearchScratchGrowth(t *testing.T) {
	var s searchScratch
	reallocs, prevCap := 0, 0
	largest := 0
	for w := 1; w*numDirStates <= 100_000; w++ {
		s.reset(geom.Rect{MinX: 0, MinY: 0, MaxX: w - 1, MaxY: 0}, 1)
		if cap(s.cells) != prevCap {
			reallocs++
			prevCap = cap(s.cells)
		}
		largest = w * numDirStates
		if len(s.cells) != largest || len(s.arms) != w || len(s.armStamp) != w {
			t.Fatalf("window of %d states: scratch lengths %d/%d/%d", largest, len(s.cells), len(s.arms), len(s.armStamp))
		}
	}
	if reallocs > 17 {
		t.Errorf("scratch reallocated %d times over windows up to 10^5 states, want ≤ 17", reallocs)
	}
	if cap(s.cells) > 2*largest {
		t.Errorf("scratch capacity %d exceeds twice the largest window (%d states)", cap(s.cells), largest)
	}
}
