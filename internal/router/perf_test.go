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
// three-layer grid, with the bound's consistency asserted on every
// relaxed edge as well. The trials cover every mode the router
// searches in: one source or a whole partial route (trunk reuse seeds
// every route point, and the route's arms shape the turn costs),
// towards a point target on any layer, a net's own layer-0 pin (the
// other nets' pins are obstacles), or a column target (a Steiner
// junction, where the bound drops its layer term and caps its
// cross-preferred term at one via).
func TestAStarCostsMatchDijkstra(t *testing.T) {
	nl := randomNetlist("astar", 28, 28, 30, 9)
	nl.NumLayers = 3
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true}
	rt := route(t, nl, cfg) // populates metal/via/history costs
	s := rt.searchers[0]
	defer func() { rt.noAStar, s.colTarget = false, false }()
	defer SetBoundCheck()()
	rng := rand.New(rand.NewSource(77))
	inWin := func(win geom.Rect, layer int) geom.Pt3 {
		return geom.XYL(win.MinX+rng.Intn(win.Width()), win.MinY+rng.Intn(win.Height()), layer)
	}
	// trunk returns an L-shaped route on layer 1 from a to b that drops
	// to layer 0 at b, and every point of it as a zero-cost source.
	trunk := func(net int32, a, b geom.Pt3) (*grid.Route, []source) {
		r := grid.NewRoute(net)
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
		var sources []source
		for _, p := range r.PointList() {
			sources = append(sources, source{p: p, din: geom.None})
		}
		return r, sources
	}
	kinds := [...]string{"point", "column", "pin"}
	reached := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		kind, multiSource := kinds[trial%3], trial/3%2 == 1
		net := int32(9999) // no pins of its own: every pin is an obstacle
		var win geom.Rect
		var dst geom.Pt3
		r := grid.NewRoute(net)
		var sources []source
		if kind == "pin" {
			// A real net's pins on layer 0, searched as that net.
			n := nl.Nets[rng.Intn(len(nl.Nets))]
			a, b := n.Pins[0], n.Pins[1]
			net = int32(n.ID)
			win = geom.NewRect(a, b).Expand(rng.Intn(6), rt.g.Bounds())
			dst = geom.XYL(b.X, b.Y, 0)
			if multiSource {
				// The pin's via up, then a trunk on layer 1.
				r, sources = trunk(net, inWin(win, 1), geom.XYL(a.X, a.Y, 1))
			} else {
				r = grid.NewRoute(net)
				sources = []source{{p: geom.XYL(a.X, a.Y, 0), din: geom.None}}
			}
		} else {
			x0, y0 := rng.Intn(14), rng.Intn(14)
			win = geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + 6 + rng.Intn(8), MaxY: y0 + 6 + rng.Intn(8)}
			if multiSource {
				r, sources = trunk(net, inWin(win, 1), inWin(win, 1))
			} else {
				// A source on layer 1: no pin obstacle.
				sources = []source{{p: inWin(win, 1), din: geom.None}}
			}
			dst = inWin(win, rng.Intn(nl.NumLayers))
		}

		s.colTarget = kind == "column"
		rt.noAStar = true
		_, plainCost, plainOK := s.dijkstra(r, sources, dst, net, win)
		rt.noAStar = false
		_, astarCost, astarOK := s.dijkstra(r, sources, dst, net, win)

		if plainOK != astarOK {
			t.Fatalf("trial %d (%s, multi-source %v): reachability differs: plain %v, A* %v",
				trial, kind, multiSource, plainOK, astarOK)
		}
		if plainOK && plainCost != astarCost {
			t.Fatalf("trial %d (%s, multi-source %v): %d sources→%v in %v: plain cost %d, A* cost %d",
				trial, kind, multiSource, len(sources), dst, win, plainCost, astarCost)
		}
		if plainOK {
			reached[kind]++
		}
	}
	for _, kind := range kinds {
		if reached[kind] < 150 {
			t.Errorf("only %d of 200 %s trials reached their target", reached[kind], kind)
		}
	}
}

// TestBoundRankOrdersCrossTerm: the tie rank grows with the bound's
// cross-preferred term — a larger term never has a smaller rank, and
// a larger rank always means a larger term — for both target kinds
// and for parameter blocks where the term saturates early, late, or
// not at all.
func TestBoundRankOrdersCrossTerm(t *testing.T) {
	blocks := map[string]Params{"default": DefaultParams(), "conference": ConferenceParams()}
	for _, tweak := range []struct {
		name     string
		mul, via int64
	}{{"no-nonpref-surcharge", 1, 4}, {"free-via", 4, 0}, {"late-cap", 2, 9}, {"cheap-via", 9, 1}} {
		p := DefaultParams()
		p.NonPrefMul, p.ViaCost = tweak.mul, tweak.via
		blocks[tweak.name] = p
	}
	for name, p := range blocks {
		step, via := (p.NonPrefMul-1)*CostScale, p.ViaCost*CostScale
		for _, kind := range []struct {
			name string
			cb   crossBound
			cap  int64
		}{{"point", newCrossBound(step, 2*via), 2 * via}, {"column", newCrossBound(step, via), via}} {
			prevX, prevRank := int64(-1), uint8(0)
			for d := 0; d < 40; d++ {
				x, rank := kind.cb.at(d)
				if want := min(int64(d)*step, kind.cap); x != want {
					t.Fatalf("%s/%s: d %d: term %d, want min(d·%d, %d) = %d", name, kind.name, d, x, step, kind.cap, want)
				}
				if rank > maxRank || rank < prevRank || (rank > prevRank && x <= prevX) || (x > prevX && d > 0 && d <= maxRank && rank == prevRank) {
					t.Fatalf("%s/%s: d %d: (term, rank) %d, %d after %d, %d", name, kind.name, d, x, rank, prevX, prevRank)
				}
				if x == 0 && rank != 0 {
					t.Fatalf("%s/%s: d %d: rank %d for a zero term", name, kind.name, d, rank)
				}
				prevX, prevRank = x, rank
			}
		}
	}
}
