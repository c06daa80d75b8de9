package tpl

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/geom"
)

// NumColors is the number of TPL masks.
const NumColors = 3

// Uncolored marks a vertex the greedy coloring could not assign within
// NumColors colors.
const Uncolored int8 = -1

// Graph is a TPL decomposition graph: one vertex per via, an edge
// between every pair of vias within the same-color via pitch
// (§II-D). It is built once per via layer after routing and used for
// the global 3-colorability check (§III-D).
type Graph struct {
	Pts []geom.Pt
	Adj [][]int32
}

// NewGraph builds the decomposition graph of the given via locations.
// Vertex i is pts[i]; its neighbors are listed in ConflictOffsets
// order, and a location listed twice answers with its last index.
// Construction is O(V + bounding-box area) through a dense site index.
func NewGraph(pts []geom.Pt) *Graph {
	g := &Graph{Pts: pts, Adj: make([][]int32, len(pts))}
	ix := newSiteIndex(pts)
	// Two passes over one flat backing array instead of a per-vertex
	// append: the graph is rebuilt after every routing pass, so the
	// O(V) small slices would dominate steady-state allocation.
	total := 0
	for _, p := range pts {
		for _, off := range ConflictOffsets {
			if ix.at(p.Add(off.X, off.Y)) >= 0 {
				total++
			}
		}
	}
	flat := make([]int32, 0, total)
	for i, p := range pts {
		start := len(flat)
		for _, off := range ConflictOffsets {
			if j := ix.at(p.Add(off.X, off.Y)); j >= 0 {
				flat = append(flat, j)
			}
		}
		g.Adj[i] = flat[start:len(flat):len(flat)]
	}
	return g
}

// conflictReach is the largest coordinate difference of a
// ConflictOffsets entry: padding the sites' bounding box by it keeps
// every conflict partner of a site inside the box.
const conflictReach = 2

// maxDenseSites caps the dense index of a siteIndex (64 MiB). Every
// routing grid the router accepts at service scale is far below it;
// beyond it the index falls back to binary search.
const maxDenseSites = 1 << 24

// siteIndex maps via locations to their last index in a point list.
// Its dense form is an int32 per location of the padded bounding box
// (index+1, 0 for none), so a lookup of a site or any of its conflict
// partners is one load with no bounds test. Points spanning a box over
// maxDenseSites use the sparse form: indices sorted by (y, x, index).
type siteIndex struct {
	pts    []geom.Pt
	x0, y0 int
	w      int
	dense  []int32
	sorted []int32
}

func newSiteIndex(pts []geom.Pt) siteIndex {
	ix := siteIndex{pts: pts}
	if len(pts) == 0 {
		return ix
	}
	b := geom.BoundingRect(pts)
	// Spans as unsigned differences stay exact for any coordinates.
	sx, sy := uint64(b.MaxX)-uint64(b.MinX), uint64(b.MaxY)-uint64(b.MinY)
	if sx < maxDenseSites && sy < maxDenseSites && (sx+1+2*conflictReach)*(sy+1+2*conflictReach) <= maxDenseSites {
		ix.x0, ix.y0 = b.MinX-conflictReach, b.MinY-conflictReach
		ix.w = int(sx) + 1 + 2*conflictReach
		ix.dense = make([]int32, ix.w*(int(sy)+1+2*conflictReach))
		for i, p := range pts {
			ix.dense[(p.Y-ix.y0)*ix.w+p.X-ix.x0] = int32(i) + 1
		}
		return ix
	}
	ix.sorted = make([]int32, len(pts))
	for i := range ix.sorted {
		ix.sorted[i] = int32(i)
	}
	slices.SortFunc(ix.sorted, func(a, b int32) int {
		if c := cmpYX(pts[a], pts[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ix
}

func cmpYX(a, b geom.Pt) int {
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.X, b.X)
}

// at returns the last index of location q, or -1. In the dense form q
// must lie in the padded box: a listed site or one of its conflict
// partners.
func (ix *siteIndex) at(q geom.Pt) int32 {
	if ix.dense != nil {
		return ix.dense[(q.Y-ix.y0)*ix.w+q.X-ix.x0] - 1
	}
	// The last index of q precedes the first entry ordered after q.
	k, _ := slices.BinarySearchFunc(ix.sorted, q, func(e int32, q geom.Pt) int {
		if cmpYX(ix.pts[e], q) <= 0 {
			return -1
		}
		return 1
	})
	if k == 0 || ix.pts[ix.sorted[k-1]] != q {
		return -1
	}
	return ix.sorted[k-1]
}

// FromLayer builds the decomposition graph of all vias on a layer.
func FromLayer(lv *LayerVias) *Graph { return NewGraph(lv.SiteList()) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n / 2
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for _, a := range g.Adj {
		if len(a) > d {
			d = len(a)
		}
	}
	return d
}

// WelshPowell greedily colors the graph with at most k colors using the
// Welsh–Powell ordering (vertices by non-increasing degree). It returns
// the color of each vertex (0..k-1, or Uncolored) and the indices of
// uncolorable vertices. A nil uncolored slice means the graph was fully
// colored, i.e. the via layer is TPL decomposable as far as the greedy
// check can tell.
func (g *Graph) WelshPowell(k int) (colors []int8, uncolored []int) {
	n := len(g.Pts)
	colors = make([]int8, n)
	for i := range colors {
		colors[i] = Uncolored
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(g.Adj[order[a]]) > len(g.Adj[order[b]])
	})
	var used [64]bool
	for _, v := range order {
		for c := 0; c < k; c++ {
			used[c] = false
		}
		for _, u := range g.Adj[v] {
			if c := colors[u]; c >= 0 {
				used[c] = true
			}
		}
		for c := int8(0); int(c) < k; c++ {
			if !used[c] {
				colors[v] = c
				break
			}
		}
		if colors[v] == Uncolored {
			uncolored = append(uncolored, v)
		}
	}
	return colors, uncolored
}

// Components returns the connected components of the graph as vertex
// index slices.
func (g *Graph) Components() [][]int {
	n := len(g.Pts)
	seen := make([]bool, n)
	var comps [][]int
	var stack []int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack = append(stack[:0], s)
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.Adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, int(u))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ColorableExact reports whether the graph is k-colorable, deciding
// each connected component independently by backtracking with a step
// budget per component. It returns ok=false with exact=false when a
// component exceeded the budget undecided. Intended for validation and
// tests; the production check is WelshPowell.
func (g *Graph) ColorableExact(k, budget int) (ok, exact bool) {
	colors := make([]int8, len(g.Pts))
	for _, comp := range g.Components() {
		steps := 0
		for _, v := range comp {
			colors[v] = Uncolored
		}
		var solve func(i int) (bool, bool)
		solve = func(i int) (bool, bool) {
			if i == len(comp) {
				return true, true
			}
			steps++
			if steps > budget {
				return false, false
			}
			v := comp[i]
			for c := int8(0); int(c) < k; c++ {
				good := true
				for _, u := range g.Adj[v] {
					if colors[u] == c {
						good = false
						break
					}
				}
				if good {
					colors[v] = c
					if done, ex := solve(i + 1); done {
						return true, true
					} else if !ex {
						colors[v] = Uncolored
						return false, false
					}
					colors[v] = Uncolored
				}
			}
			return false, true
		}
		done, ex := solve(0)
		if !ex {
			return false, false
		}
		if !done {
			return false, true
		}
	}
	return true, true
}

// ValidColoring reports whether colors is a proper coloring of g with
// every vertex assigned (no Uncolored entries).
func (g *Graph) ValidColoring(colors []int8) bool {
	if len(colors) != len(g.Pts) {
		return false
	}
	for v, c := range colors {
		if c < 0 {
			return false
		}
		for _, u := range g.Adj[v] {
			if colors[u] == c {
				return false
			}
		}
	}
	return true
}

// WheelPattern builds the via locations of a "wheel" pattern (Fig 11):
// a hub via surrounded by a cycle of rim vias at the given offsets.
// Rim offsets must be within conflict range of the hub and consecutive
// rim vias within conflict range of each other for the pattern to
// behave as a wheel. The canonical uncolorable wheel is
// WheelPattern(hub, WheelRim).
func WheelPattern(hub geom.Pt, rim []geom.Pt) []geom.Pt {
	pts := []geom.Pt{hub}
	for _, r := range rim {
		pts = append(pts, hub.Add(r.X, r.Y))
	}
	return pts
}

// WheelRim is a 5-via rim forming a chordless odd cycle (induced C5)
// around the hub in cyclic order: every rim via conflicts with the hub
// and with its two cycle neighbors only. Hub + C5 needs 4 colors, yet
// the 6-via pattern contains no FVP window — the Fig 11 failure mode
// the global Welsh–Powell check exists to catch. (Under our calibrated
// same-color pitch of §II-D the smallest FVP-free uncolorable pattern
// has 6 vias — exhaustive search over 5×5 neighborhoods finds none with
// 5 — whereas the paper's Fig 11(a) sketches one with 5; the paper's
// exact pitch is not published and the structural role of the pattern
// is identical.)
var WheelRim = []geom.Pt{
	geom.XY(-2, -1), geom.XY(-2, 0), geom.XY(0, 1), geom.XY(1, -1), geom.XY(0, -2),
}
