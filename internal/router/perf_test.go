package router

// Tests for the search-core performance machinery: the epoch-stamped
// scratch and the A* lower bound. These guard the property that none
// of the optimizations change routing results.

import (
	"math/rand"
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
)

// TestEpochStaleReadsInf verifies the O(1) reset: values written in one
// epoch read as infCost after the next reset without any clearing.
func TestEpochStaleReadsInf(t *testing.T) {
	var s searchScratch
	win := geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9}
	s.reset(win, 2)
	id := s.stateIdx(geom.XYL(3, 4, 1), 2)
	if got := s.distAt(id); got != infCost {
		t.Fatalf("fresh cell reads %d, want infCost", got)
	}
	s.setDist(id, 42, 7)
	if got := s.distAt(id); got != 42 {
		t.Fatalf("written cell reads %d, want 42", got)
	}
	s.reset(win, 2) // same window: same id maps to the same cell
	if got := s.distAt(id); got != infCost {
		t.Fatalf("stale cell reads %d after reset, want infCost", got)
	}
	// An epoch wraparound must also invalidate stale cells.
	s.setDist(id, 99, 7)
	s.epoch = ^uint32(0)
	s.reset(win, 2)
	if got := s.distAt(id); got != infCost {
		t.Fatalf("stale cell reads %d after epoch wraparound, want infCost", got)
	}
}

// TestAStarCostsMatchDijkstra: the goal-directed bound is admissible
// and consistent, so the found path cost must equal plain Dijkstra's on
// any instance — here random windows of a routed (hence cost-laden)
// grid. The trials cover every mode the router searches in: one source
// or a whole partial route (trunk reuse seeds every route point, and
// the route's arms shape the turn costs), towards a point target or a
// column target (a Steiner junction, where the bound drops its layer
// term).
func TestAStarCostsMatchDijkstra(t *testing.T) {
	nl := randomNetlist("astar", 28, 28, 30, 9)
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true}
	rt := route(t, nl, cfg) // populates metal/via/history costs
	defer func() { rt.noAStar, rt.colTarget = false, false }()
	rng := rand.New(rand.NewSource(77))
	inWin := func(win geom.Rect, layer int) geom.Pt3 {
		return geom.XYL(win.MinX+rng.Intn(win.Width()), win.MinY+rng.Intn(win.Height()), layer)
	}
	for trial := 0; trial < 400; trial++ {
		multiSource, column := trial%2 == 1, trial/2%2 == 1
		x0, y0 := rng.Intn(14), rng.Intn(14)
		win := geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + 6 + rng.Intn(8), MaxY: y0 + 6 + rng.Intn(8)}
		r := grid.NewRoute(9999)
		var sources []source
		if multiSource {
			// An L-shaped trunk on layer 1 that drops to layer 0 at its
			// far end; every point of it is a zero-cost source.
			a, b := inWin(win, 1), inWin(win, 1)
			path := []geom.Pt3{a}
			for p := a; p != b; path = append(path, p) {
				switch {
				case p.X < b.X:
					p.X++
				case p.X > b.X:
					p.X--
				case p.Y < b.Y:
					p.Y++
				default:
					p.Y--
				}
			}
			r.AddPath(append(path, geom.XYL(b.X, b.Y, 0)))
			for _, p := range r.PointList() {
				sources = append(sources, source{p: p, din: geom.None})
			}
		} else {
			// Endpoints on layer 1: no pin obstacles.
			sources = []source{{p: inWin(win, 1), din: geom.None}}
		}
		dst := inWin(win, 1)
		if column {
			dst.Layer = rng.Intn(nl.NumLayers)
		}

		rt.colTarget = column
		rt.noAStar = true
		_, plainCost, plainOK := rt.dijkstra(r, sources, dst, 9999, win)
		rt.noAStar = false
		_, astarCost, astarOK := rt.dijkstra(r, sources, dst, 9999, win)

		if plainOK != astarOK {
			t.Fatalf("trial %d (multi-source %v, column %v): reachability differs: plain %v, A* %v",
				trial, multiSource, column, plainOK, astarOK)
		}
		if plainOK && plainCost != astarCost {
			t.Fatalf("trial %d (multi-source %v, column %v): %d sources→%v in %v: plain cost %d, A* cost %d",
				trial, multiSource, column, len(sources), dst, win, plainCost, astarCost)
		}
	}
}
