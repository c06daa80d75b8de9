package grid

// The pre-flat Occupancy and Route, kept verbatim (renamed) as the
// references the packed Occupancy and the sorted-index Route are
// differentially tested and fuzzed against. Canonicalize, which had no
// caller, is left out.

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/geom"
)

// refOccupancy tracks which nets occupy each grid point of one routing
// layer. During negotiated-congestion routing multiple nets may share a
// point (an overflow); the rip-up-and-reroute loop then needs to know
// exactly which nets those are, so each cell stores the occupant list.
// A net occupying a point twice (a route crossing itself at a junction)
// is stored once per occurrence and removed symmetrically.
type refOccupancy struct {
	w, h  int
	cells [][]int32
	used  int // number of non-empty cells
	// over tracks the cells currently overflowing (shared by ≥2
	// distinct nets), maintained incrementally by Add/Remove. It makes
	// the congestion query O(overflows) instead of O(w·h) — the
	// negotiation loop polls for congestion once per round, and the TPL
	// rip-up loop once per iteration, almost always finding none.
	over map[int32]struct{}
}

// newRefOccupancy returns an empty occupancy over a w×h grid.
func newRefOccupancy(w, h int) *refOccupancy {
	return &refOccupancy{w: w, h: h, cells: make([][]int32, w*h), over: map[int32]struct{}{}}
}

func (o *refOccupancy) idx(p geom.Pt) int { return p.Y*o.w + p.X }

// Add records net occupying point p.
func (o *refOccupancy) Add(p geom.Pt, net int32) {
	i := o.idx(p)
	if len(o.cells[i]) == 0 {
		o.used++
	}
	o.cells[i] = append(o.cells[i], net)
	// Adding can only create an overflow, never clear one, and only on
	// a cell that now holds ≥2 entries.
	if len(o.cells[i]) >= 2 && o.Overflow(p) {
		o.over[int32(i)] = struct{}{}
	}
}

// Remove removes one occurrence of net at p. It panics if the net does
// not occupy the point — that would mean route bookkeeping has
// diverged from the grid.
func (o *refOccupancy) Remove(p geom.Pt, net int32) {
	i := o.idx(p)
	cell := o.cells[i]
	for j, n := range cell {
		if n == net {
			cell[j] = cell[len(cell)-1]
			o.cells[i] = cell[:len(cell)-1]
			if len(o.cells[i]) == 0 {
				o.used--
			}
			// Removing can only clear an overflow. A cell that held one
			// entry could not have been marked; larger cells re-check.
			if len(cell) >= 2 && !o.Overflow(p) {
				delete(o.over, int32(i))
			}
			return
		}
	}
	panic(fmt.Sprintf("grid: Remove(%v, net %d): net not present", p, net))
}

// Count returns the number of occupants at p (with multiplicity).
func (o *refOccupancy) Count(p geom.Pt) int { return len(o.cells[o.idx(p)]) }

// Nets returns the occupant list at p. The returned slice aliases
// internal storage and must not be modified.
func (o *refOccupancy) Nets(p geom.Pt) []int32 { return o.cells[o.idx(p)] }

// CountOther returns the number of occupants at p belonging to nets
// other than net, with multiplicity. It is the hot-path accessor of the
// router's congestion cost: one bounds-checked slice walk, no slice
// header escapes, no allocation.
func (o *refOccupancy) CountOther(p geom.Pt, net int32) int {
	k := 0
	for _, n := range o.cells[o.idx(p)] {
		if n != net {
			k++
		}
	}
	return k
}

// Occupied reports whether any net occupies p.
func (o *refOccupancy) Occupied(p geom.Pt) bool { return len(o.cells[o.idx(p)]) > 0 }

// OccupiedByOther reports whether a net other than net occupies p.
func (o *refOccupancy) OccupiedByOther(p geom.Pt, net int32) bool {
	for _, n := range o.cells[o.idx(p)] {
		if n != net {
			return true
		}
	}
	return false
}

// Has reports whether the given net occupies p.
func (o *refOccupancy) Has(p geom.Pt, net int32) bool {
	for _, n := range o.cells[o.idx(p)] {
		if n == net {
			return true
		}
	}
	return false
}

// Overflow reports whether two or more distinct nets share p.
func (o *refOccupancy) Overflow(p geom.Pt) bool {
	cell := o.cells[o.idx(p)]
	if len(cell) < 2 {
		return false
	}
	first := cell[0]
	for _, n := range cell[1:] {
		if n != first {
			return true
		}
	}
	return false
}

// Overflows calls fn for every point where distinct nets overlap, in
// row-major order. It scans the whole grid: the independent reference
// for the incremental overflow set (see OverflowIdxs), kept for
// cross-checking.
func (o *refOccupancy) Overflows(fn func(geom.Pt)) {
	for y := 0; y < o.h; y++ {
		for x := 0; x < o.w; x++ {
			p := geom.XY(x, y)
			if o.Overflow(p) {
				fn(p)
			}
		}
	}
}

// OverflowCount returns the number of overflowing cells, O(1).
func (o *refOccupancy) OverflowCount() int { return len(o.over) }

// OverflowIdxs returns the dense indices of all overflowing cells in
// ascending (row-major) order — the same order Overflows visits them —
// from the incrementally maintained set.
func (o *refOccupancy) OverflowIdxs() []int32 {
	if len(o.over) == 0 {
		return nil
	}
	out := make([]int32, 0, len(o.over))
	for i := range o.over {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// UsedCells returns the number of occupied grid points.
func (o *refOccupancy) UsedCells() int { return o.used }

// Clear empties every cell in place, retaining the occupant-list
// capacity each cell has grown — the point of reusing an refOccupancy.
func (o *refOccupancy) Clear() {
	for i := range o.cells {
		if len(o.cells[i]) > 0 {
			o.cells[i] = o.cells[i][:0]
		}
	}
	o.used = 0
	clear(o.over)
}

// refRoute is the routed geometry of one net: an ordered list of paths
// (polylines of unit grid steps in 3-D), one per two-pin connection
// made while joining the net's pins. Consecutive points of a path
// differ by exactly one grid step; an Up/Down step is a via.
type refRoute struct {
	// Net is the owning net's ID.
	Net int32
	// Paths holds one polyline per routed connection. Later paths may
	// terminate on points of earlier ones (Steiner junctions) but do
	// not duplicate their segments.
	Paths [][]geom.Pt3

	points []geom.Pt3 // cached deduplicated metal points
	vias   []geom.Pt3 // cached via base points (lower layer of the pair)
	arms   map[geom.Pt3]uint8
	dirty  bool

	// rebuild scratch, reused across rebuilds so a rip-up/reroute cycle
	// does not re-allocate the dedup maps every time.
	seenPt  map[geom.Pt3]bool
	seenVia map[geom.Pt3]bool
}

// refDirBit maps a planar direction to its arms bitmask bit.
func refDirBit(d geom.Dir) uint8 {
	switch d {
	case geom.East:
		return 1
	case geom.West:
		return 2
	case geom.North:
		return 4
	case geom.South:
		return 8
	}
	return 0
}

// newRefRoute returns an empty route for the given net.
func newRefRoute(net int32) *refRoute { return &refRoute{Net: net, dirty: true} }

// AddPath appends a polyline. It panics if consecutive points are not
// one grid step apart, catching router bugs at the source.
func (r *refRoute) AddPath(path []geom.Pt3) {
	refCheckUnitSteps(path)
	r.Paths = append(r.Paths, path)
	r.dirty = true
}

// AddPathCopy appends a copy of the polyline, reusing inner-slice
// storage retained by an earlier Reset when available. The caller
// keeps ownership of path — routers pass a per-search scratch buffer
// here instead of allocating a fresh slice per connection.
func (r *refRoute) AddPathCopy(path []geom.Pt3) {
	refCheckUnitSteps(path)
	var dst []geom.Pt3
	if n := len(r.Paths); n < cap(r.Paths) {
		dst = r.Paths[: n+1 : cap(r.Paths)][n][:0]
	}
	r.Paths = append(r.Paths, append(dst, path...))
	r.dirty = true
}

func refCheckUnitSteps(path []geom.Pt3) {
	for i := 1; i < len(path); i++ {
		if path[i-1].DirTo(path[i]) == geom.None {
			panic(fmt.Sprintf("grid: path step %v -> %v is not a unit step", path[i-1], path[i]))
		}
	}
}

// Reset removes all paths.
func (r *refRoute) Reset() {
	r.Paths = r.Paths[:0]
	r.dirty = true
}

// Empty reports whether the route has no paths.
func (r *refRoute) Empty() bool { return len(r.Paths) == 0 }

func (r *refRoute) rebuild() {
	if !r.dirty {
		return
	}
	if r.seenPt == nil {
		r.seenPt = map[geom.Pt3]bool{}
		r.seenVia = map[geom.Pt3]bool{}
		r.arms = map[geom.Pt3]uint8{}
	} else {
		clear(r.seenPt)
		clear(r.seenVia)
		clear(r.arms)
	}
	seenPt, seenVia := r.seenPt, r.seenVia
	r.points = r.points[:0]
	r.vias = r.vias[:0]
	for _, path := range r.Paths {
		for i, p := range path {
			if !seenPt[p] {
				seenPt[p] = true
				r.points = append(r.points, p)
			}
			if i > 0 {
				prev := path[i-1]
				d := prev.DirTo(p)
				if d.Via() {
					base := prev
					if d == geom.Down {
						base = p
					}
					if !seenVia[base] {
						seenVia[base] = true
						r.vias = append(r.vias, base)
					}
				} else {
					r.arms[prev] |= refDirBit(d)
					r.arms[p] |= refDirBit(d.Opposite())
				}
			}
		}
	}
	r.dirty = false
}

// PointList returns the distinct metal grid points the route covers.
func (r *refRoute) PointList() []geom.Pt3 {
	r.rebuild()
	return r.points
}

// ViaList returns the distinct vias of the route. A via between layers
// v and v+1 is reported at Layer v.
func (r *refRoute) ViaList() []geom.Pt3 {
	r.rebuild()
	return r.vias
}

// HasPoint reports whether the route covers metal point p.
func (r *refRoute) HasPoint(p geom.Pt3) bool {
	r.rebuild()
	for _, q := range r.points {
		if q == p {
			return true
		}
	}
	return false
}

// Wirelength returns the number of planar unit segments, counting a
// segment once even if multiple paths traverse it. It reads the arms
// masks the rebuild maintains: every unique planar segment contributes
// exactly one arm bit to each of its two endpoints (the masks are
// OR-ed, so re-traversals don't double-count), hence the segment count
// is half the total arm popcount — no per-call allocation.
func (r *refRoute) Wirelength() int {
	r.rebuild()
	total := 0
	for _, mask := range r.arms {
		total += bits.OnesCount8(mask)
	}
	return total / 2
}

// NumVias returns the via count of the route.
func (r *refRoute) NumVias() int { return len(r.ViaList()) }

// MetalDirs returns the directions in which the route's metal extends
// from point p on p's layer (at most 4). It reflects actual routed
// segments: a direction is included when some path traverses the unit
// segment between p and its neighbor in that direction.
func (r *refRoute) MetalDirs(p geom.Pt3) []geom.Dir {
	r.rebuild()
	mask := r.arms[p]
	if mask == 0 {
		return nil
	}
	out := make([]geom.Dir, 0, 4)
	for _, d := range geom.PlanarDirs {
		if mask&refDirBit(d) != 0 {
			out = append(out, d)
		}
	}
	return out
}

// ArmMask returns MetalDirs as a bitmask (East=1, West=2, North=4,
// South=8) without allocating.
func (r *refRoute) ArmMask(p geom.Pt3) uint8 {
	r.rebuild()
	return r.arms[p]
}

// HasArm reports whether the route's metal extends from p in direction
// d.
func (r *refRoute) HasArm(p geom.Pt3, d geom.Dir) bool {
	r.rebuild()
	return r.arms[p]&refDirBit(d) != 0
}

// Connected reports whether the route's point set is a single
// connected component containing every point in pins (on layer 0
// unless the pin is elsewhere). It is the correctness predicate of a
// routed net.
func (r *refRoute) Connected(pins []geom.Pt3) bool {
	r.rebuild()
	if len(r.points) == 0 {
		return len(pins) == 0
	}
	index := make(map[geom.Pt3]int, len(r.points))
	for i, p := range r.points {
		index[p] = i
	}
	for _, pin := range pins {
		if _, ok := index[pin]; !ok {
			return false
		}
	}
	// Union-find over traversed segments.
	parent := make([]int, len(r.points))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, path := range r.Paths {
		for i := 1; i < len(path); i++ {
			a, b := index[path[i-1]], index[path[i]]
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	root := -1
	for _, pin := range pins {
		pr := find(index[pin])
		if root == -1 {
			root = pr
		} else if pr != root {
			return false
		}
	}
	return true
}
