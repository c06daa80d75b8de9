package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/coloring"
	"repro/internal/geom"
)

// randomWalkPath builds a random valid unit-step path on a grid of the
// given size, alternating planar and via moves.
func randomWalkPath(rng *rand.Rand, w, h, layers, steps int) []geom.Pt3 {
	p := geom.XYL(rng.Intn(w), rng.Intn(h), rng.Intn(layers))
	path := []geom.Pt3{p}
	for i := 0; i < steps; i++ {
		dirs := []geom.Dir{geom.East, geom.West, geom.North, geom.South, geom.Up, geom.Down}
		d := dirs[rng.Intn(len(dirs))]
		q := p.Step(d)
		if q.X < 0 || q.X >= w || q.Y < 0 || q.Y >= h || q.Layer < 0 || q.Layer >= layers {
			continue
		}
		if q == path[len(path)-1] {
			continue
		}
		path = append(path, q)
		p = q
	}
	return path
}

// Adding then removing a route restores a pristine grid.
func TestAddRemoveRouteInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		g := New(12, 12, 3, coloring.Scheme{Type: coloring.SIM})
		r := NewRoute(int32(trial))
		for k := 0; k < 1+rng.Intn(3); k++ {
			path := randomWalkPath(rng, 12, 12, 3, 10+rng.Intn(20))
			if len(path) >= 2 {
				r.AddPath(path)
			}
		}
		if r.Empty() {
			continue
		}
		g.AddRoute(r)
		g.RemoveRoute(r)
		for l := 0; l < 3; l++ {
			if g.Metal[l].UsedCells() != 0 {
				t.Fatalf("trial %d: layer %d has %d used cells after removal",
					trial, l, g.Metal[l].UsedCells())
			}
		}
		if g.TotalVias() != 0 {
			t.Fatalf("trial %d: %d vias left after removal", trial, g.TotalVias())
		}
	}
}

// Wirelength is bounded by total planar steps and at least the number
// of distinct planar segments implied by the point count on any single
// path.
func TestWirelengthBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		r := NewRoute(0)
		path := randomWalkPath(rng, 10, 10, 2, 15+rng.Intn(25))
		if len(path) < 2 {
			continue
		}
		r.AddPath(path)
		planarSteps := 0
		for i := 1; i < len(path); i++ {
			if !path[i-1].DirTo(path[i]).Via() {
				planarSteps++
			}
		}
		wl := r.Wirelength()
		if wl > planarSteps {
			t.Fatalf("trial %d: WL %d > planar steps %d", trial, wl, planarSteps)
		}
		if planarSteps > 0 && wl == 0 {
			t.Fatalf("trial %d: WL 0 with %d planar steps", trial, planarSteps)
		}
	}
}

// Arm masks are symmetric: p has an arm toward q iff q has one toward
// p.
func TestArmSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		r := NewRoute(0)
		path := randomWalkPath(rng, 10, 10, 2, 30)
		if len(path) < 2 {
			continue
		}
		r.AddPath(path)
		for _, p := range r.PointList() {
			for _, d := range geom.PlanarDirs {
				if r.HasArm(p, d) != r.HasArm(p.Step(d), d.Opposite()) {
					t.Fatalf("trial %d: asymmetric arm at %v dir %v", trial, p, d)
				}
			}
		}
	}
}

// A path's own endpoints are always connected through the route.
func TestPathEndpointsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		r := NewRoute(0)
		path := randomWalkPath(rng, 10, 10, 2, 25)
		if len(path) < 2 {
			continue
		}
		r.AddPath(path)
		if !r.Connected([]geom.Pt3{path[0], path[len(path)-1]}) {
			t.Fatalf("trial %d: endpoints disconnected", trial)
		}
	}
}

// Occupancy count equals adds minus removes for arbitrary sequences.
func TestOccupancyCounts(t *testing.T) {
	f := func(ops []uint8) bool {
		o := NewOccupancy(4, 4)
		p := geom.XY(1, 1)
		depth := 0
		for _, op := range ops {
			if op%2 == 0 {
				o.Add(p, int32(op%5))
				depth++
			} else if depth > 0 {
				// Remove an occupant that is present.
				nets := o.AppendNets(nil, p)
				o.Remove(p, nets[0])
				depth--
			}
			if o.Count(p) != depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOverflowSetMatchesScan: the incrementally maintained overflow
// set equals the full-grid reference scan — same cells, same row-major
// order — after any random add/remove sequence.
func TestOverflowSetMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		o := NewOccupancy(10, 10)
		type occAt struct {
			p   geom.Pt
			net int32
		}
		var live []occAt
		for op := 0; op < 400; op++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				// Cluster adds on few cells/nets so overlaps are common.
				p := geom.XY(rng.Intn(4), rng.Intn(4))
				net := int32(rng.Intn(3))
				o.Add(p, net)
				live = append(live, occAt{p, net})
			} else {
				i := rng.Intn(len(live))
				o.Remove(live[i].p, live[i].net)
				live = append(live[:i], live[i+1:]...)
			}

			var want []int32
			o.Overflows(func(p geom.Pt) { want = append(want, int32(p.Y*10+p.X)) })
			got := o.OverflowIdxs()
			if len(got) != len(want) {
				t.Fatalf("trial %d op %d: overflow set has %d cells, scan found %d",
					trial, op, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d op %d: overflow idx %d: set %d, scan %d",
						trial, op, k, got[k], want[k])
				}
			}
			if o.OverflowCount() != len(want) {
				t.Fatalf("trial %d op %d: OverflowCount %d, scan %d",
					trial, op, o.OverflowCount(), len(want))
			}
		}
	}
}
