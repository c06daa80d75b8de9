// Package dvi implements double via insertion: DVI-candidate
// feasibility under SADP constraints (paper §II-C), the post-routing
// TPL-aware DVI problem (§III-E) with both the exact ILP formulation
// (constraints C1–C8) and the fast priority-queue heuristic
// (Algorithm 3), and the dead-via accounting the paper's tables report.
package dvi

import (
	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
)

// A Via identifies a single via of a routing solution by the lower
// metal point of the pair it connects: Base.Layer is the via layer.
type Via struct {
	// Net is the owning net's ID.
	Net int32
	// Base is the via location; the via connects (X, Y) on routing
	// layers Base.Layer and Base.Layer+1.
	Base geom.Pt3
}

// Upper returns the upper metal point of the via.
func (v Via) Upper() geom.Pt3 { return geom.XYL(v.Base.X, v.Base.Y, v.Base.Layer+1) }

// Pos returns the in-plane via site.
func (v Via) Pos() geom.Pt { return geom.XY(v.Base.X, v.Base.Y) }

// Layer returns the via layer index.
func (v Via) Layer() int { return v.Base.Layer }

// Feasibility decides whether a DVI candidate location can host a
// redundant via for a given single via. It needs the grid (occupancy),
// the via's own route (metal arm orientations at the via), and the
// coloring scheme (turn legality of the L-extensions).
type Feasibility struct {
	G *grid.Grid
}

// DVICOffsets are the four candidate offsets of a redundant via around
// a single via (Fig 5(a)).
var DVICOffsets = [4]geom.Pt{
	geom.XY(1, 0), geom.XY(-1, 0), geom.XY(0, 1), geom.XY(0, -1),
}

// FeasibleDVICs returns the in-plane locations of the feasible DVI
// candidates of via v, whose owning route is r. The checks, per
// §II-C:
//
//  1. The candidate site must be inside the grid.
//  2. The candidate must not host a via already (any net, same via
//     layer), and the candidate's metal points on both connected
//     layers must not be occupied by another net.
//  3. Extending each connected metal layer from the via to the
//     candidate must not create a forbidden turn against the metal
//     arms the route already has at the via — except where the
//     one-unit-extension rule of Fig 6(a) applies. A layer whose metal
//     already extends toward the candidate needs no extension; a layer
//     with no planar arms at the via (a stacked-via landing) never
//     turns.
func (f Feasibility) FeasibleDVICs(r *grid.Route, v Via) []geom.Pt {
	return f.AppendFeasibleDVICs(make([]geom.Pt, 0, 4), r, v)
}

// AppendFeasibleDVICs is FeasibleDVICs appending into a caller-supplied
// buffer, for hot paths (the router's cost assignment runs it once per
// via of every routed net) that recycle their scratch.
func (f Feasibility) AppendFeasibleDVICs(out []geom.Pt, r *grid.Route, v Via) []geom.Pt {
	for _, off := range DVICOffsets {
		c := v.Pos().Add(off.X, off.Y)
		if f.DVICFeasible(r, v, c) {
			out = append(out, c)
		}
	}
	return out
}

// DVICFeasible reports whether the candidate site c (one grid step
// from the via) can host a redundant via for v.
func (f Feasibility) DVICFeasible(r *grid.Route, v Via, c geom.Pt) bool {
	if !f.G.InPlane(c) {
		return false
	}
	d := geom.Pt3{X: v.Base.X, Y: v.Base.Y}.DirTo(geom.Pt3{X: c.X, Y: c.Y})
	if d == geom.None || !d.Planar() {
		return false
	}
	// Occupancy: the candidate via site and both metal points.
	if f.G.Vias[v.Layer()].Has(c) {
		return false
	}
	for _, l := range [2]int{v.Base.Layer, v.Base.Layer + 1} {
		if f.G.Metal[l].OccupiedByOther(c, v.Net) {
			return false
		}
	}
	// Turn legality of the one-unit extensions on both layers.
	for _, l := range [2]int{v.Base.Layer, v.Base.Layer + 1} {
		if !f.extensionLegal(r, geom.XYL(v.Base.X, v.Base.Y, l), d) {
			return false
		}
	}
	return true
}

// extensionLegal checks that extending the metal at point p one unit in
// direction d does not create an undecomposable pattern with the
// route's existing arms at p.
func (f Feasibility) extensionLegal(r *grid.Route, p geom.Pt3, d geom.Dir) bool {
	if r.HasArm(p, d) {
		// Metal already runs toward the candidate; no new shape.
		return true
	}
	scheme := f.G.Scheme
	for _, a := range geom.PlanarDirs {
		if !r.HasArm(p, a) {
			continue
		}
		corner, isCorner := coloring.CornerOf(a, d)
		if !isCorner {
			continue // straight extension of an existing arm
		}
		if scheme.Turn(p.Pt2(), corner) == coloring.Forbidden &&
			!scheme.OneUnitExtensionOK(p.Pt2(), corner, d) {
			return false
		}
	}
	return true
}

// ViasOf extracts the single vias of a route in deterministic order.
func ViasOf(r *grid.Route) []Via {
	bases := r.ViaList()
	out := make([]Via, len(bases))
	for i, b := range bases {
		out[i] = Via{Net: r.Net, Base: b}
	}
	return out
}
