package grid

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
)

func newTestGrid() *Grid {
	return New(8, 8, 2, coloring.Scheme{Type: coloring.SIM})
}

func TestNewGridPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 5, 2, coloring.Scheme{}) },
		func() { New(5, 5, 1, coloring.Scheme{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid New did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestGridStructure(t *testing.T) {
	g := newTestGrid()
	if len(g.Metal) != 2 || len(g.Vias) != 1 {
		t.Fatalf("layers: %d metal, %d via", len(g.Metal), len(g.Vias))
	}
	if !g.PrefHorizontal(0) || g.PrefHorizontal(1) {
		t.Error("preferred directions wrong")
	}
	if !g.PrefDir(0, geom.East) || g.PrefDir(0, geom.North) {
		t.Error("PrefDir wrong on layer 0")
	}
	if !g.PrefDir(1, geom.South) || g.PrefDir(1, geom.West) {
		t.Error("PrefDir wrong on layer 1")
	}
	if g.NumPoints() != 8*8*2 {
		t.Errorf("NumPoints = %d", g.NumPoints())
	}
}

func TestGridBounds(t *testing.T) {
	g := newTestGrid()
	if !g.InBounds(geom.XYL(0, 0, 0)) || !g.InBounds(geom.XYL(7, 7, 1)) {
		t.Error("corners out of bounds")
	}
	for _, p := range []geom.Pt3{
		geom.XYL(-1, 0, 0), geom.XYL(8, 0, 0), geom.XYL(0, 8, 1),
		geom.XYL(0, 0, -1), geom.XYL(0, 0, 2),
	} {
		if g.InBounds(p) {
			t.Errorf("%v reported in bounds", p)
		}
	}
	if !g.Bounds().Contains(geom.XY(7, 7)) || g.Bounds().Contains(geom.XY(8, 7)) {
		t.Error("Bounds rect wrong")
	}
}

func TestOccupancyAddRemove(t *testing.T) {
	o := NewOccupancy(4, 4)
	p := geom.XY(1, 2)
	o.Add(p, 3)
	o.Add(p, 5)
	if o.Count(p) != 2 || !o.Occupied(p) {
		t.Fatal("Add failed")
	}
	if !o.Overflow(p) {
		t.Error("distinct nets sharing a point not flagged as overflow")
	}
	if !o.OccupiedByOther(p, 3) || !o.Has(p, 3) || !o.Has(p, 5) {
		t.Error("occupant queries wrong")
	}
	o.Remove(p, 3)
	if o.Overflow(p) || o.OccupiedByOther(p, 5) {
		t.Error("overflow persists after Remove")
	}
	if o.UsedCells() != 1 {
		t.Errorf("UsedCells = %d", o.UsedCells())
	}
	o.Remove(p, 5)
	if o.Occupied(p) || o.UsedCells() != 0 {
		t.Error("Remove failed")
	}
}

func TestOccupancySameNetTwiceIsNotOverflow(t *testing.T) {
	o := NewOccupancy(4, 4)
	p := geom.XY(0, 0)
	o.Add(p, 7)
	o.Add(p, 7)
	if o.Overflow(p) {
		t.Error("same net twice flagged as overflow")
	}
	if o.OccupiedByOther(p, 7) {
		t.Error("OccupiedByOther wrong for own net")
	}
}

func TestOccupancyRemoveAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Remove of absent net did not panic")
		}
	}()
	NewOccupancy(4, 4).Remove(geom.XY(0, 0), 1)
}

func TestRoutePathValidation(t *testing.T) {
	r := NewRoute(0)
	defer func() {
		if recover() == nil {
			t.Error("non-unit step accepted")
		}
	}()
	r.AddPath([]geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(2, 0, 0)})
}

// An L-shaped route with one via: (0,0,m0) east to (2,0,m0), up, north
// to (2,2,m1).
func lRoute() *Route {
	r := NewRoute(1)
	r.AddPath([]geom.Pt3{
		geom.XYL(0, 0, 0), geom.XYL(1, 0, 0), geom.XYL(2, 0, 0),
		geom.XYL(2, 0, 1), geom.XYL(2, 1, 1), geom.XYL(2, 2, 1),
	})
	return r
}

func TestRouteDerivedGeometry(t *testing.T) {
	r := lRoute()
	if got := r.Wirelength(); got != 4 {
		t.Errorf("Wirelength = %d, want 4", got)
	}
	if got := r.NumVias(); got != 1 {
		t.Errorf("NumVias = %d, want 1", got)
	}
	vias := r.ViaList()
	if len(vias) != 1 || vias[0] != geom.XYL(2, 0, 0) {
		t.Errorf("ViaList = %v", vias)
	}
	if len(r.PointList()) != 6 {
		t.Errorf("PointList = %v", r.PointList())
	}
	if !r.HasPoint(geom.XYL(1, 0, 0)) || r.HasPoint(geom.XYL(1, 0, 1)) {
		t.Error("HasPoint wrong")
	}
}

func TestRouteViaRecordedAtLowerLayer(t *testing.T) {
	r := NewRoute(2)
	// Down-step via: from layer 1 to layer 0.
	r.AddPath([]geom.Pt3{geom.XYL(3, 3, 1), geom.XYL(3, 3, 0), geom.XYL(4, 3, 0)})
	vias := r.ViaList()
	if len(vias) != 1 || vias[0] != geom.XYL(3, 3, 0) {
		t.Errorf("down-step via recorded at %v", vias)
	}
}

func TestRouteMetalDirs(t *testing.T) {
	r := lRoute()
	dirs := r.MetalDirs(geom.XYL(1, 0, 0))
	if len(dirs) != 2 {
		t.Fatalf("MetalDirs = %v", dirs)
	}
	// Via point (2,0,0): metal extends only west on layer 0.
	dirs = r.MetalDirs(geom.XYL(2, 0, 0))
	if len(dirs) != 1 || dirs[0] != geom.West {
		t.Errorf("MetalDirs at via = %v", dirs)
	}
	// On layer 1 the via point extends only north.
	dirs = r.MetalDirs(geom.XYL(2, 0, 1))
	if len(dirs) != 1 || dirs[0] != geom.North {
		t.Errorf("MetalDirs at via (m1) = %v", dirs)
	}
}

func TestRouteWirelengthDeduplicatesSegments(t *testing.T) {
	r := NewRoute(3)
	seg := []geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(1, 0, 0)}
	r.AddPath(seg)
	r.AddPath(seg) // same segment twice
	if got := r.Wirelength(); got != 1 {
		t.Errorf("Wirelength = %d, want 1 (dedup)", got)
	}
}

func TestRouteConnected(t *testing.T) {
	r := lRoute()
	if !r.Connected([]geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(2, 2, 1)}) {
		t.Error("connected route reported disconnected")
	}
	if r.Connected([]geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(5, 5, 1)}) {
		t.Error("missing pin reported connected")
	}
	// Two disjoint paths are not connected.
	r2 := NewRoute(4)
	r2.AddPath([]geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(1, 0, 0)})
	r2.AddPath([]geom.Pt3{geom.XYL(5, 5, 0), geom.XYL(6, 5, 0)})
	if r2.Connected([]geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(5, 5, 0)}) {
		t.Error("disjoint paths reported connected")
	}
}

func TestGridAddRemoveRoute(t *testing.T) {
	g := newTestGrid()
	r := lRoute()
	g.AddRoute(r)
	if !g.Metal[0].Has(geom.XY(1, 0), r.Net) || !g.Metal[1].Has(geom.XY(2, 1), r.Net) {
		t.Error("metal occupancy missing after AddRoute")
	}
	if !g.Vias[0].Has(geom.XY(2, 0)) || g.TotalVias() != 1 {
		t.Error("via occupancy missing after AddRoute")
	}
	g.RemoveRoute(r)
	if g.Metal[0].Occupied(geom.XY(1, 0)) || g.TotalVias() != 0 {
		t.Error("occupancy persists after RemoveRoute")
	}
}

func TestGridCongestions(t *testing.T) {
	g := newTestGrid()
	a := NewRoute(1)
	a.AddPath([]geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(1, 0, 0), geom.XYL(2, 0, 0)})
	b := NewRoute(2)
	b.AddPath([]geom.Pt3{geom.XYL(1, 0, 0), geom.XYL(1, 0, 1), geom.XYL(1, 1, 1)})
	g.AddRoute(a)
	g.AddRoute(b)
	cong := g.Congestions()
	if len(cong) != 1 || cong[0] != geom.XYL(1, 0, 0) {
		t.Errorf("Congestions = %v", cong)
	}
	g.RemoveRoute(b)
	if len(g.Congestions()) != 0 {
		t.Error("congestion persists after removal")
	}
}
