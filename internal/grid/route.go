package grid

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Route is the routed geometry of one net: an ordered list of paths
// (polylines of unit grid steps in 3-D), one per two-pin connection
// made while joining the net's pins. Consecutive points of a path
// differ by exactly one grid step; an Up/Down step is a via.
type Route struct {
	// Net is the owning net's ID.
	Net int32
	// Paths holds one polyline per routed connection. Later paths may
	// terminate on points of earlier ones (Steiner junctions) but do
	// not duplicate their segments.
	Paths [][]geom.Pt3

	// The derived geometry below is valid while built is set. The zero
	// value means "not built", so a decoded or literal Route rebuilds
	// on its first query like one made by NewRoute.
	built  bool
	points []geom.Pt3 // distinct metal points, in first-seen path order
	arms   []uint8    // arms[i] is the arm mask of points[i]
	vias   []geom.Pt3 // distinct via base points, in first-seen order
	// index holds one key<<32 | point-index entry per point, ascending.
	// The key is packKey(p) when every coordinate is packable, else
	// (wide) the point's rank in (layer, y, x) order; both make key
	// order point order, so lookups binary-search it.
	index []uint64
	wide  bool

	// Rebuild scratch, kept so a recycled Route rebuilds without
	// allocating. at[k] is the point index of the k-th point of the
	// concatenated paths (Connected reads it too); flat holds those
	// points in wide mode; viaSeen[i] marks points[i] as a listed via
	// base.
	at      []int32
	flat    []geom.Pt3
	viaSeen []bool
}

// dirBit maps a planar direction to its arms bitmask bit.
func dirBit(d geom.Dir) uint8 {
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

// packable reports whether p fits packKey: x and y in 14 bits, the
// layer in 4 — the router's grid limits.
func packable(p geom.Pt3) bool {
	return uint(p.X) < 1<<14 && uint(p.Y) < 1<<14 && uint(p.Layer) < 1<<4
}

// packKey packs a packable point so that key order is (layer, y, x)
// order.
func packKey(p geom.Pt3) uint64 {
	return uint64(p.Layer)<<28 | uint64(p.Y)<<14 | uint64(p.X)
}

func cmpPt3(a, b geom.Pt3) int {
	if c := cmp.Compare(a.Layer, b.Layer); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.X, b.X)
}

// NewRoute returns an empty route for the given net.
func NewRoute(net int32) *Route { return &Route{Net: net} }

// AddPath appends a polyline. It panics if consecutive points are not
// one grid step apart, catching router bugs at the source.
func (r *Route) AddPath(path []geom.Pt3) {
	checkUnitSteps(path)
	r.Paths = append(r.Paths, path)
	r.built = false
}

// AddPathCopy appends a copy of the polyline, reusing inner-slice
// storage retained by an earlier Reset when available. The caller
// keeps ownership of path — routers pass a per-search scratch buffer
// here instead of allocating a fresh slice per connection.
func (r *Route) AddPathCopy(path []geom.Pt3) {
	checkUnitSteps(path)
	var dst []geom.Pt3
	if n := len(r.Paths); n < cap(r.Paths) {
		dst = r.Paths[: n+1 : cap(r.Paths)][n][:0]
	}
	r.Paths = append(r.Paths, append(dst, path...))
	r.built = false
}

func checkUnitSteps(path []geom.Pt3) {
	for i := 1; i < len(path); i++ {
		if path[i-1].DirTo(path[i]) == geom.None {
			panic(fmt.Sprintf("grid: path step %v -> %v is not a unit step", path[i-1], path[i]))
		}
	}
}

// Reset removes all paths.
func (r *Route) Reset() {
	r.Paths = r.Paths[:0]
	r.built = false
}

// Empty reports whether the route has no paths.
func (r *Route) Empty() bool { return len(r.Paths) == 0 }

// rebuild derives the point, arm, via and index lists from Paths with
// one sort: every path point enters the index as key<<32 | position,
// so after sorting each distinct point's entries are adjacent and its
// first-seen position leads them.
func (r *Route) rebuild() {
	if r.built {
		return
	}
	idx := r.index[:0]
	r.wide = false
	for _, path := range r.Paths {
		for _, p := range path {
			r.wide = r.wide || !packable(p)
			idx = append(idx, packKey(p)<<32|uint64(len(idx)))
		}
	}
	n := len(idx)
	if r.wide {
		idx = r.rankWide(idx[:0])
	} else {
		slices.Sort(idx)
	}
	// First pass over the groups: each position learns its group's
	// leading (first-seen) position.
	at := slices.Grow(r.at[:0], n)[:n]
	for g := 0; g < len(idx); {
		key, lead := idx[g]>>32, int32(uint32(idx[g]))
		for ; g < len(idx) && idx[g]>>32 == key; g++ {
			at[uint32(idx[g])] = lead
		}
	}
	// Walk the paths in order: a leader becomes the next point, any
	// other position takes its leader's (already assigned) point index.
	points, arms, vias, seen := r.points[:0], r.arms[:0], r.vias[:0], r.viaSeen[:0]
	k := 0
	for _, path := range r.Paths {
		for j, p := range path {
			if at[k] == int32(k) {
				at[k] = int32(len(points))
				points = append(points, p)
				arms = append(arms, 0)
				seen = append(seen, false)
			} else {
				at[k] = at[at[k]]
			}
			if j > 0 {
				a, b := at[k-1], at[k]
				d := path[j-1].DirTo(p)
				if d.Via() {
					base, bp := a, path[j-1]
					if d == geom.Down {
						base, bp = b, p
					}
					if !seen[base] {
						seen[base] = true
						vias = append(vias, bp)
					}
				} else {
					arms[a] |= dirBit(d)
					arms[b] |= dirBit(d.Opposite())
				}
			}
			k++
		}
	}
	// Compact the index to one entry per point (in place: the write
	// position never passes the read position).
	out := idx[:0]
	for g := 0; g < len(idx); {
		key, lead := idx[g]>>32, uint32(idx[g])
		for g++; g < len(idx) && idx[g]>>32 == key; g++ {
		}
		out = append(out, key<<32|uint64(at[lead]))
	}
	r.index, r.at = out, at
	r.points, r.arms, r.vias, r.viaSeen = points, arms, vias, seen
	r.built = true
}

// rankWide fills idx with rank<<32 | position for every path point,
// ascending, where rank numbers the distinct points in (layer, y, x)
// order: the index for routes with coordinates packKey cannot hold.
func (r *Route) rankWide(idx []uint64) []uint64 {
	flat := r.flat[:0]
	for _, path := range r.Paths {
		for _, p := range path {
			idx = append(idx, uint64(len(flat)))
			flat = append(flat, p)
		}
	}
	r.flat = flat
	slices.SortFunc(idx, func(a, b uint64) int {
		if c := cmpPt3(flat[a], flat[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := uint64(0)
	for i, e := range idx {
		if i > 0 && flat[e] != flat[uint32(idx[i-1])] {
			rank++
		}
		idx[i] = rank<<32 | e
	}
	return idx
}

// lookup returns the index of p in PointList, or -1.
func (r *Route) lookup(p geom.Pt3) int {
	r.rebuild()
	if r.wide {
		i, ok := slices.BinarySearchFunc(r.index, p, func(e uint64, p geom.Pt3) int {
			return cmpPt3(r.points[uint32(e)], p)
		})
		if !ok {
			return -1
		}
		return int(uint32(r.index[i]))
	}
	if !packable(p) {
		return -1
	}
	key := packKey(p)
	i, _ := slices.BinarySearch(r.index, key<<32)
	if i == len(r.index) || r.index[i]>>32 != key {
		return -1
	}
	return int(uint32(r.index[i]))
}

// PointList returns the distinct metal grid points the route covers,
// in the order the paths first reach them.
func (r *Route) PointList() []geom.Pt3 {
	r.rebuild()
	return r.points
}

// ArmList returns the arm masks of PointList's points, in the same
// order (see ArmMask).
func (r *Route) ArmList() []uint8 {
	r.rebuild()
	return r.arms
}

// ViaList returns the distinct vias of the route, in the order the
// paths first cross them. A via between layers v and v+1 is reported
// at Layer v.
func (r *Route) ViaList() []geom.Pt3 {
	r.rebuild()
	return r.vias
}

// HasPoint reports whether the route covers metal point p.
func (r *Route) HasPoint(p geom.Pt3) bool { return r.lookup(p) >= 0 }

// Wirelength returns the number of planar unit segments, counting a
// segment once even if multiple paths traverse it. Every unique planar
// segment contributes exactly one arm bit to each of its two endpoints
// (the masks are OR-ed, so re-traversals don't double-count), hence
// the segment count is half the total arm popcount.
func (r *Route) Wirelength() int {
	total := 0
	for _, mask := range r.ArmList() {
		total += bits.OnesCount8(mask)
	}
	return total / 2
}

// NumVias returns the via count of the route.
func (r *Route) NumVias() int { return len(r.ViaList()) }

// MetalDirs returns the directions in which the route's metal extends
// from point p on p's layer (at most 4). It reflects actual routed
// segments: a direction is included when some path traverses the unit
// segment between p and its neighbor in that direction.
func (r *Route) MetalDirs(p geom.Pt3) []geom.Dir {
	mask := r.ArmMask(p)
	if mask == 0 {
		return nil
	}
	out := make([]geom.Dir, 0, 4)
	for _, d := range geom.PlanarDirs {
		if mask&dirBit(d) != 0 {
			out = append(out, d)
		}
	}
	return out
}

// ArmMask returns MetalDirs as a bitmask (East=1, West=2, North=4,
// South=8) without allocating.
func (r *Route) ArmMask(p geom.Pt3) uint8 {
	i := r.lookup(p)
	if i < 0 {
		return 0
	}
	return r.arms[i]
}

// HasArm reports whether the route's metal extends from p in direction
// d.
func (r *Route) HasArm(p geom.Pt3, d geom.Dir) bool {
	return r.ArmMask(p)&dirBit(d) != 0
}

// Connected reports whether the route's point set is a single
// connected component containing every point in pins (on layer 0
// unless the pin is elsewhere). It is the correctness predicate of a
// routed net.
func (r *Route) Connected(pins []geom.Pt3) bool {
	r.rebuild()
	if len(r.points) == 0 {
		return len(pins) == 0
	}
	for _, pin := range pins {
		if r.lookup(pin) < 0 {
			return false
		}
	}
	// Union-find over traversed segments, keyed by point index.
	parent := make([]int32, len(r.points))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	k := 0
	for _, path := range r.Paths {
		for j := range path {
			if j > 0 {
				if ra, rb := find(r.at[k-1]), find(r.at[k]); ra != rb {
					parent[ra] = rb
				}
			}
			k++
		}
	}
	root := int32(-1)
	for _, pin := range pins {
		pr := find(int32(r.lookup(pin)))
		if root == -1 {
			root = pr
		} else if pr != root {
			return false
		}
	}
	return true
}
