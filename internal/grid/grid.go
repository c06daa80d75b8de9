// Package grid provides the multi-layer routing grid: structural
// dimensions, per-layer metal occupancy, via occupancy, and routed-net
// geometry (routes). It is the shared substrate of the router, the TPL
// checker, and the DVI engine.
//
// Layer numbering: routing layer 0 is metal 2 of the paper's
// benchmarks (horizontal preferred direction), layer 1 is metal 3
// (vertical preferred), and further layers alternate. Via layer v
// connects routing layers v and v+1. Metal 1 carries pins only and is
// not modeled as a routing layer.
package grid

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/tpl"
)

// Grid is a W×H multi-layer routing grid with color pre-assignment.
type Grid struct {
	W, H      int
	NumLayers int
	Scheme    coloring.Scheme

	// Metal[l] is the metal occupancy of routing layer l.
	Metal []*Occupancy
	// Vias[v] is the via occupancy of via layer v (between routing
	// layers v and v+1).
	Vias []*tpl.LayerVias
}

// New creates an empty grid.
func New(w, h, numLayers int, scheme coloring.Scheme) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dims %dx%d", w, h))
	}
	if numLayers < 2 {
		panic(fmt.Sprintf("grid: need at least 2 routing layers, got %d", numLayers))
	}
	g := &Grid{W: w, H: h, NumLayers: numLayers, Scheme: scheme}
	for l := 0; l < numLayers; l++ {
		g.Metal = append(g.Metal, NewOccupancy(w, h))
	}
	for v := 0; v < numLayers-1; v++ {
		g.Vias = append(g.Vias, tpl.NewLayerVias(w, h))
	}
	return g
}

// Clear empties the grid in place for reuse under a (possibly
// different) coloring scheme. Occupant-list and via-count storage is
// retained; dimensions and layer count are fixed at New.
func (g *Grid) Clear(scheme coloring.Scheme) {
	g.Scheme = scheme
	for _, occ := range g.Metal {
		occ.Clear()
	}
	for _, lv := range g.Vias {
		lv.Clear()
	}
}

// PrefHorizontal reports whether routing layer l prefers horizontal
// wires. Layers alternate starting horizontal at layer 0 (metal 2).
func (g *Grid) PrefHorizontal(l int) bool { return l%2 == 0 }

// PrefDir reports whether direction d is along the preferred routing
// direction of layer l.
func (g *Grid) PrefDir(l int, d geom.Dir) bool {
	if g.PrefHorizontal(l) {
		return d.Horizontal()
	}
	return d.Vertical()
}

// InBounds reports whether p is a valid grid point on an existing
// layer.
func (g *Grid) InBounds(p geom.Pt3) bool {
	return p.Layer >= 0 && p.Layer < g.NumLayers &&
		p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// InPlane reports whether the 2-D point is inside the grid.
func (g *Grid) InPlane(p geom.Pt) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// PIdx returns the dense index of a 2-D point.
func (g *Grid) PIdx(p geom.Pt) int { return p.Y*g.W + p.X }

// NumPoints returns the total number of 3-D grid points.
func (g *Grid) NumPoints() int { return g.W * g.H * g.NumLayers }

// Bounds returns the 2-D bounding rectangle of the grid.
func (g *Grid) Bounds() geom.Rect {
	return geom.Rect{MinX: 0, MinY: 0, MaxX: g.W - 1, MaxY: g.H - 1}
}

// AddRoute commits a route's metal points and vias to the occupancy
// structures.
func (g *Grid) AddRoute(r *Route) {
	for _, p := range r.PointList() {
		g.Metal[p.Layer].Add(geom.XY(p.X, p.Y), r.Net)
	}
	for _, v := range r.ViaList() {
		g.Vias[v.Layer].Add(geom.XY(v.X, v.Y))
	}
}

// RemoveRoute undoes AddRoute.
func (g *Grid) RemoveRoute(r *Route) {
	for _, p := range r.PointList() {
		g.Metal[p.Layer].Remove(geom.XY(p.X, p.Y), r.Net)
	}
	for _, v := range r.ViaList() {
		g.Vias[v.Layer].Remove(geom.XY(v.X, v.Y))
	}
}

// TotalVias returns the number of vias over all via layers.
func (g *Grid) TotalVias() int {
	n := 0
	for _, lv := range g.Vias {
		n += lv.Len()
	}
	return n
}

// Congestions returns every grid point occupied by more than one net,
// in layer-major row-major order. It reads the occupancies'
// incrementally maintained overflow sets, so the common case — no
// congestion — costs O(layers), not a grid scan.
func (g *Grid) Congestions() []geom.Pt3 {
	total := 0
	for _, occ := range g.Metal {
		total += occ.OverflowCount()
	}
	if total == 0 {
		return nil
	}
	out := make([]geom.Pt3, 0, total)
	for l, occ := range g.Metal {
		for _, i := range occ.OverflowIdxs() {
			out = append(out, geom.XYL(int(i)%g.W, int(i)/g.W, l))
		}
	}
	return out
}
