package verify

import (
	"repro/internal/geom"
)

// Independent via-manufacturability checks. The same-color via pitch
// of the TPL conflict model (§II-D) is re-stated here from the spec:
// two distinct vias whose squared center distance is at most 5 cannot
// share a mask color. FVP-ness of a 3×3 window is decided by
// brute-force 3-coloring of the window's conflict graph — not the
// paper's O(1) corner rules that tpl.Window implements — so the two
// can only agree by both being right.

const sameColorSqPitch = 5

// conflictOffsets enumerates every nonzero (dx, dy) within the pitch.
var conflictOffsets = func() []geom.Pt {
	var offs []geom.Pt
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if dx*dx+dy*dy <= sameColorSqPitch {
				offs = append(offs, geom.XY(dx, dy))
			}
		}
	}
	return offs
}()

func inConflict(a, b geom.Pt) bool {
	if a == b {
		return false
	}
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx+dy*dy <= sameColorSqPitch
}

// windowColorable records for each of the 512 possible 3×3 via
// patterns (bit x+3*y set = via at offset (x, y)) whether it admits a
// proper 3-coloring under the pitch conflict model. It is filled once,
// at package initialization, and only read afterwards, so concurrent
// checkers share it without synchronization.
var windowColorable = func() (t [512]bool) {
	for mask := range t {
		t[mask] = colorable3(uint16(mask))
	}
	return t
}()

func patternColorable3(mask uint16) bool { return windowColorable[mask] }

// colorable3 decides by exhaustive backtracking whether the 3×3
// pattern mask admits a proper 3-coloring.
func colorable3(mask uint16) bool {
	var pts []geom.Pt
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if mask&(1<<(x+3*y)) != 0 {
				pts = append(pts, geom.XY(x, y))
			}
		}
	}
	colors := make([]int, len(pts))
	var solve func(i int) bool
	solve = func(i int) bool {
		if i == len(pts) {
			return true
		}
		for col := 1; col <= 3; col++ {
			ok := true
			for j := 0; j < i; j++ {
				if colors[j] == col && inConflict(pts[i], pts[j]) {
					ok = false
					break
				}
			}
			if ok {
				colors[i] = col
				if solve(i + 1) {
					return true
				}
				colors[i] = 0
			}
		}
		return false
	}
	return solve(0)
}

// layerScratch is the per-call state of the via-layer checks, sized
// once from the grid and reused layer by layer.
type layerScratch struct {
	sites []int32 // the layer's occupied cells, row-major
	// seen stamps FVP window origins with vl+1. Origins run from -2 to
	// W-1 and H-1, so the array is padded to (W+2)×(H+2).
	seen []int32
	// index maps a cell of the layer being colored to its site index,
	// -1 elsewhere.
	index []int32
	start []int32 // site i's conflict neighbours are adj[start[i]:start[i+1]]
	adj   []int32
	order []int32
	color []int8
}

// checkViaLayers runs the manufacturability checks on every via layer:
// no 3×3 window is an FVP, and the layer's full decomposition graph is
// 3-colorable. The site list of a layer comes from scanning its
// via-owner cells, which are already in row-major order.
func (c *checker) checkViaLayers() {
	if c.plane == 0 {
		return
	}
	s := &layerScratch{
		seen:  make([]int32, (c.w+2)*(c.h+2)),
		index: make([]int32, c.plane),
	}
	for i := range s.index {
		s.index[i] = -1
	}
	for vl := 0; vl < len(c.via.one)/c.plane; vl++ {
		occ := c.via.one[vl*c.plane : (vl+1)*c.plane]
		s.sites = s.sites[:0]
		for cell, o := range occ {
			if o != 0 {
				s.sites = append(s.sites, int32(cell))
			}
		}
		c.checkFVPs(vl, occ, s)
		for i, site := range s.sites {
			s.index[site] = int32(i)
		}
		c.checkLayerColorable(vl, s)
		for _, site := range s.sites {
			s.index[site] = -1
		}
	}
}

// checkFVPs scans every 3×3 window that contains at least one via of
// the layer (each window checked once, in the order the row-major site
// scan first reaches it) for forbidden via patterns.
func (c *checker) checkFVPs(vl int, occ []int32, s *layerScratch) {
	stamp := int32(vl + 1)
	pw := c.w + 2
	for _, site := range s.sites {
		sx, sy := int(site)%c.w, int(site)/c.w
		for oy := sy - 2; oy <= sy; oy++ {
			for ox := sx - 2; ox <= sx; ox++ {
				si := (oy+2)*pw + ox + 2
				if s.seen[si] == stamp {
					continue
				}
				s.seen[si] = stamp
				var mask uint16
				n := 0
				for wy := 0; wy < 3; wy++ {
					y := oy + wy
					if y < 0 || y >= c.h {
						continue
					}
					row := occ[y*c.w : (y+1)*c.w]
					for wx := 0; wx < 3; wx++ {
						if x := ox + wx; x >= 0 && x < c.w && row[x] != 0 {
							mask |= 1 << (wx + 3*wy)
							n++
						}
					}
				}
				if n >= 4 && !patternColorable3(mask) {
					c.rep.add(FVP, -1, geom.XYL(ox, oy, vl),
						"3x3 window with %d vias is a forbidden via pattern (via layer %d)", n, vl)
				}
			}
		}
	}
}

// checkLayerColorable verifies that the layer's full decomposition
// graph (one vertex per via, an edge per within-pitch pair) is
// 3-colorable: greedy coloring in descending-degree order first, exact
// backtracking on the failing components as the fallback, so a greedy
// artifact is never reported as a real violation. s.index must map the
// layer's sites.
func (c *checker) checkLayerColorable(vl int, s *layerScratch) {
	n := len(s.sites)
	if n == 0 {
		return
	}
	s.start = append(s.start[:0], 0)
	s.adj = s.adj[:0]
	count := make([]int32, len(conflictOffsets)+1) // sites per degree
	for _, site := range s.sites {
		x, y := int(site)%c.w, int(site)/c.w
		deg := 0
		for _, off := range conflictOffsets {
			qx, qy := x+off.X, y+off.Y
			if qx < 0 || qx >= c.w || qy < 0 || qy >= c.h {
				continue
			}
			if j := s.index[qy*c.w+qx]; j >= 0 {
				s.adj = append(s.adj, j)
				deg++
			}
		}
		s.start = append(s.start, int32(len(s.adj)))
		count[deg]++
	}

	// Stable counting sort by descending degree: count becomes each
	// degree's next slot in order.
	for d, acc := len(count)-1, int32(0); d >= 0; d-- {
		count[d], acc = acc, acc+count[d]
	}
	s.order = resize(s.order, n)
	for v := 0; v < n; v++ {
		d := s.start[v+1] - s.start[v]
		s.order[count[d]] = int32(v)
		count[d]++
	}

	s.color = resize(s.color, n) // 0 = unassigned, 1..3 = colors
	clear(s.color)
	var failed []int32
	for _, v := range s.order {
		var used [4]bool
		for _, u := range s.adj[s.start[v]:s.start[v+1]] {
			used[s.color[u]] = true
		}
		for col := int8(1); col <= 3; col++ {
			if !used[col] {
				s.color[v] = col
				break
			}
		}
		if s.color[v] == 0 {
			failed = append(failed, v)
		}
	}
	if len(failed) == 0 {
		return
	}

	// Greedy failed: decide the failing components exactly.
	comp := components(s.start, s.adj)
	reported := make([]bool, len(comp.members))
	colors := make([]int8, n)
	placed := make([]int8, n)
	for _, v := range failed {
		cid := comp.id[v]
		if reported[cid] {
			continue
		}
		reported[cid] = true
		ok, exact := colorableExact(s.start, s.adj, comp.members[cid], colors, placed, 3, c.opt.ColorBudget)
		site := int(s.sites[v])
		at := geom.XYL(site%c.w, site/c.w, vl)
		switch {
		case !exact:
			c.rep.add(VerifierLimit, -1, at,
				"colorability of %d-via component undecided within budget (via layer %d)",
				len(comp.members[cid]), vl)
		case !ok:
			c.rep.add(NotThreeColorable, -1, at,
				"decomposition graph component of %d vias is not 3-colorable (via layer %d)",
				len(comp.members[cid]), vl)
		}
	}
}

// resize returns s resliced to length n, reallocated if its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

type componentSet struct {
	id      []int32
	members [][]int32
}

// components labels connected components of a graph in CSR form
// (vertex v's neighbours are adj[start[v]:start[v+1]]).
func components(start, adj []int32) componentSet {
	n := len(start) - 1
	cs := componentSet{id: make([]int32, n)}
	for i := range cs.id {
		cs.id[i] = -1
	}
	var stack []int32
	for s := 0; s < n; s++ {
		if cs.id[s] >= 0 {
			continue
		}
		cid := int32(len(cs.members))
		var mem []int32
		stack = append(stack[:0], int32(s))
		cs.id[s] = cid
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mem = append(mem, v)
			for _, u := range adj[start[v]:start[v+1]] {
				if cs.id[u] < 0 {
					cs.id[u] = cid
					stack = append(stack, u)
				}
			}
		}
		cs.members = append(cs.members, mem)
	}
	return cs
}

// colorableExact decides k-colorability of one component by
// backtracking with a step budget. exact=false means the budget ran
// out before a decision. The vertices take colors in maximum
// cardinality order (orderComponent), so each choice meets as many
// earlier ones as it can, and a vertex may take at most one color
// beyond those in use, so no two branches differ by a renaming of the
// colors. colors and placed hold 0 for every vertex of comp on entry;
// placed is restored to that, and colors too unless the component
// colors.
func colorableExact(start, adj, comp []int32, colors, placed []int8, k, budget int) (ok, exact bool) {
	order := orderComponent(start, adj, comp, placed)
	steps := 0
	var solve func(i int, used int8) (bool, bool)
	solve = func(i int, used int8) (bool, bool) {
		if i == len(order) {
			return true, true
		}
		steps++
		if steps > budget {
			return false, false
		}
		v := order[i]
		for col := int8(1); col <= min(used+1, int8(k)); col++ {
			good := true
			for _, u := range adj[start[v]:start[v+1]] {
				if colors[u] == col {
					good = false
					break
				}
			}
			if good {
				colors[v] = col
				done, ex := solve(i+1, max(used, col))
				if done {
					return true, true
				}
				colors[v] = 0
				if !ex {
					return false, false
				}
			}
		}
		return false, true
	}
	return solve(0, 0)
}

// orderComponent lists comp in maximum cardinality order: each next
// vertex is one with the most neighbours listed before it, the last
// one whose count rose on a tie, comp's first on a tie at the start.
// Buckets by count keep it linear. placed holds 0 for every vertex of
// comp on entry and on return; in between it holds -1 for a listed
// vertex and the count for the others.
func orderComponent(start, adj, comp []int32, placed []int8) []int32 {
	buckets := make([][]int32, len(conflictOffsets)+1)
	for i := len(comp) - 1; i >= 0; i-- {
		buckets[0] = append(buckets[0], comp[i])
	}
	order := make([]int32, 0, len(comp))
	for top := 0; len(order) < len(comp); {
		b := buckets[top]
		if len(b) == 0 {
			top--
			continue
		}
		v := b[len(b)-1]
		buckets[top] = b[:len(b)-1]
		if placed[v] != int8(top) {
			continue // listed already, or its count rose since
		}
		placed[v] = -1
		order = append(order, v)
		for _, u := range adj[start[v]:start[v+1]] {
			if placed[u] >= 0 {
				placed[u]++
				buckets[placed[u]] = append(buckets[placed[u]], u)
				top = max(top, int(placed[u]))
			}
		}
	}
	for _, v := range comp {
		placed[v] = 0
	}
	return order
}
