package dvi

import (
	"container/heap"
	"slices"

	"repro/internal/geom"
	"repro/internal/tpl"
)

// HeurParams weight the DVI penalty of Algorithm 3 (Table II: δ = λ =
// μ = 1).
type HeurParams struct {
	Delta, Lambda, Mu int
}

// DefaultHeurParams returns the paper's Table II values.
func DefaultHeurParams() HeurParams { return HeurParams{Delta: 1, Lambda: 1, Mu: 1} }

// SolveHeuristic runs the fast TPL-aware DVI heuristic (Algorithm 3):
// TPL pre-coloring of existing vias, then redundant via insertion in
// ascending DVI-penalty order with lazy priority-queue re-evaluation
// and FVP-based validity checks, then coloring of the inserted vias
// with greedy assignment, un-inserting any uncolorable redundant via.
// Complexity is O(n log n) in the number of feasible DVICs.
func (in *Instance) SolveHeuristic(p HeurParams) *Solution {
	n := len(in.Vias)
	s := &Solution{
		Inserted:  make([]int, n),
		Colors:    make([]int8, n),
		RedColors: make([]int8, n),
	}
	for i := range s.Inserted {
		s.Inserted[i] = -1
		s.RedColors[i] = tpl.Uncolored
	}

	// TPL pre-coloring on existing vias (Welsh–Powell per via layer).
	in.precolor(s)

	h := &heurState{in: in, sol: s, p: p}
	h.build()
	h.run()

	// TPL coloring on inserted redundant vias; un-insert uncolorable
	// ones (final loop of Algorithm 3).
	h.colorInserted()

	s.InsertedCount = 0
	for _, j := range s.Inserted {
		if j >= 0 {
			s.InsertedCount++
		}
	}
	s.DeadVias = n - s.InsertedCount
	s.Uncolorable = 0
	for _, c := range s.Colors {
		if c == tpl.Uncolored {
			s.Uncolorable++
		}
	}
	return s
}

// precolor runs Welsh–Powell on each via layer's existing vias, in
// ascending layer order, and stores the colors. Each layer's graph
// lists its vias in instance order: a counting pass over the grid's via
// layers (the range build indexes too) groups them stably.
func (in *Instance) precolor(s *Solution) {
	start := make([]int, len(in.G.Vias)+1)
	for _, v := range in.Vias {
		start[v.Layer()+1]++
	}
	for vl := 1; vl < len(start); vl++ {
		start[vl] += start[vl-1]
	}
	next := slices.Clone(start)
	order := make([]int, len(in.Vias))
	for i, v := range in.Vias {
		order[next[v.Layer()]] = i
		next[v.Layer()]++
	}
	var pts []geom.Pt
	for vl := 0; vl+1 < len(start); vl++ {
		group := order[start[vl]:start[vl+1]]
		if len(group) == 0 {
			continue
		}
		pts = pts[:0]
		for _, i := range group {
			pts = append(pts, in.Vias[i].Pos())
		}
		colors, _ := tpl.NewGraph(pts).WelshPowell(tpl.NumColors)
		for k, i := range group {
			s.Colors[i] = colors[k]
		}
	}
}

// cand identifies one feasible DVIC.
type cand struct {
	via int // index into in.Vias
	j   int // index into in.Feas[via]
}

type heapItem struct {
	cand
	dp int // DVI penalty at push time (may be stale)
}

type candHeap []heapItem

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(a, b int) bool {
	if h[a].dp != h[b].dp {
		return h[a].dp < h[b].dp
	}
	if h[a].via != h[b].via {
		return h[a].via < h[b].via
	}
	return h[a].j < h[b].j
}
func (h candHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type heurState struct {
	in  *Instance
	sol *Solution
	p   HeurParams

	pq candHeap
	// occ[vl] mirrors the via layer occupancy including inserted
	// redundant vias, for FVP checks.
	occ []*tpl.LayerVias
	// w, h are the via-layer dimensions.
	w, h int
	// The candidates at via site (vl, x, y) (conflicting DVICs share a
	// site) are siteCands[siteStart[c]:siteStart[c+1]] with
	// c = (vl·h + y)·w + x, in (via, j) order. NewInstance only yields
	// in-plane candidates.
	siteStart []int32
	siteCands []cand
	// protected[i]: via i already has a redundant via.
	protected []bool
}

func (h *heurState) build() {
	in := h.in
	h.protected = make([]bool, len(in.Vias))
	ncand := 0
	for i := range in.Vias {
		ncand += len(in.Feas[i])
	}
	nl := len(in.G.Vias)
	h.occ = make([]*tpl.LayerVias, nl)
	for vl := 0; vl < nl; vl++ {
		w, hh := in.G.Vias[vl].Dims()
		h.occ[vl] = tpl.NewLayerVias(w, hh)
	}
	if nl > 0 {
		h.w, h.h = in.G.Vias[0].Dims()
	}
	for _, v := range in.Vias {
		h.occ[v.Layer()].Add(v.Pos())
	}

	// Counting sort of the candidates by site, stable in (via, j)
	// order; the queue is filled in the same pass and heapified once,
	// since (dp, via, j) is a total order: the pop sequence does not
	// depend on the initial arrangement.
	h.siteStart = make([]int32, nl*h.w*h.h+1)
	for i, v := range in.Vias {
		for _, c := range in.Feas[i] {
			h.siteStart[h.siteOf(v.Layer(), c)+1]++
		}
	}
	for k := 1; k < len(h.siteStart); k++ {
		h.siteStart[k] += h.siteStart[k-1]
	}
	next := make([]int32, len(h.siteStart)-1)
	copy(next, h.siteStart)
	h.siteCands = make([]cand, ncand)
	h.pq = make(candHeap, 0, ncand)
	for i, v := range in.Vias {
		for j, c := range in.Feas[i] {
			site := h.siteOf(v.Layer(), c)
			h.siteCands[next[site]] = cand{i, j}
			next[site]++
			h.pq = append(h.pq, heapItem{cand{i, j}, 0})
		}
	}
	// Initialize true DPs (setDP of Algorithm 3).
	for k := range h.pq {
		h.pq[k].dp = h.computeDP(h.pq[k].cand)
	}
	heap.Init(&h.pq)
}

// siteOf returns the site index of in-plane point p on via layer vl.
func (h *heurState) siteOf(vl int, p geom.Pt) int { return (vl*h.h+p.Y)*h.w + p.X }

// candsAt lists the candidates at p on via layer vl (none off the
// plane).
func (h *heurState) candsAt(vl int, p geom.Pt) []cand {
	if p.X < 0 || p.X >= h.w || p.Y < 0 || p.Y >= h.h {
		return nil
	}
	site := h.siteOf(vl, p)
	return h.siteCands[h.siteStart[site]:h.siteStart[site+1]]
}

// liveFeasCount counts via i's candidates that are still usable.
func (h *heurState) liveFeasCount(i int) int {
	n := 0
	for j := range h.in.Feas[i] {
		if h.candValid(cand{i, j}) {
			n++
		}
	}
	return n
}

// candValid is the validity check of Algorithm 3: the candidate's via
// is unprotected, no redundant via occupies the site (a conflicting
// DVIC taken), and inserting there would not create an FVP.
func (h *heurState) candValid(c cand) bool {
	if h.protected[c.via] {
		return false
	}
	vl := h.in.Vias[c.via].Layer()
	pt := h.in.Feas[c.via][c.j]
	if h.occ[vl].Has(pt) {
		return false
	}
	return !h.occ[vl].WouldCreateFVP(pt)
}

// computeDP evaluates the DVI penalty of a candidate:
//
//	DP = δ·#feasibleDVICs(via) + λ·#conflictingDVICs + μ·#killedDVICs
func (h *heurState) computeDP(c cand) int {
	in := h.in
	vl := in.Vias[c.via].Layer()
	pt := in.Feas[c.via][c.j]
	feas := h.liveFeasCount(c.via)
	conflicts := 0
	for _, other := range h.candsAt(vl, pt) {
		if other.via != c.via && h.candValid(other) {
			conflicts++
		}
	}
	kills := h.countKills(vl, pt, c.via)
	return h.p.Delta*feas + h.p.Lambda*conflicts + h.p.Mu*kills
}

// countKills counts how many other vias' valid candidates would become
// FVP-blocked by inserting a via at pt.
func (h *heurState) countKills(vl int, pt geom.Pt, self int) int {
	occ := h.occ[vl]
	kills := 0
	// Only candidates within Chebyshev distance 4 can share a 3×3
	// window with pt after insertion... window span is 2, and both
	// sites must fall in one window, so distance ≤ 2 in each axis.
	for dx := -2; dx <= 2; dx++ {
		for dy := -2; dy <= 2; dy++ {
			q := pt.Add(dx, dy)
			if q == pt {
				continue
			}
			for _, other := range h.candsAt(vl, q) {
				if other.via == self || !h.candValid(other) {
					continue
				}
				if occ.WouldCreateFVP(q) {
					continue // already blocked
				}
				occ.Add(pt)
				blocked := occ.WouldCreateFVP(q)
				occ.Remove(pt)
				if blocked {
					kills++
				}
			}
		}
	}
	return kills
}

// run is the main PQ loop of Algorithm 3.
func (h *heurState) run() {
	for h.pq.Len() > 0 {
		top := h.pq[0]
		if !h.candValid(top.cand) {
			heap.Pop(&h.pq)
			continue
		}
		dp := h.computeDP(top.cand)
		if dp != top.dp {
			// Stale penalty: re-set and re-push (lines 11–14).
			h.pq[0].dp = dp
			heap.Fix(&h.pq, 0)
			continue
		}
		heap.Pop(&h.pq)
		// Insert a redundant via at the candidate.
		i := top.via
		vl := h.in.Vias[i].Layer()
		pt := h.in.Feas[i][top.j]
		h.occ[vl].Add(pt)
		h.sol.Inserted[i] = top.j
		h.protected[i] = true
	}
}

// colorInserted greedily colors the inserted redundant vias against
// the pre-colored existing vias and already-colored insertions;
// uncolorable insertions are removed (the final loop of Algorithm 3).
func (h *heurState) colorInserted() {
	in, s := h.in, h.sol
	// Color per via-layer site; tpl.Uncolored where no colored via
	// sits.
	colorAt := make([]int8, len(h.siteStart)-1)
	for k := range colorAt {
		colorAt[k] = tpl.Uncolored
	}
	for i, v := range in.Vias {
		colorAt[h.siteOf(v.Layer(), v.Pos())] = s.Colors[i]
	}
	for i := range in.Vias {
		j := s.Inserted[i]
		if j < 0 {
			continue
		}
		vl := in.Vias[i].Layer()
		pt := in.Feas[i][j]
		var used [tpl.NumColors]bool
		for _, off := range tpl.ConflictOffsets {
			q := pt.Add(off.X, off.Y)
			if q.X < 0 || q.X >= h.w || q.Y < 0 || q.Y >= h.h {
				continue
			}
			if c := colorAt[h.siteOf(vl, q)]; c >= 0 {
				used[c] = true
			}
		}
		assigned := tpl.Uncolored
		for c := int8(0); c < tpl.NumColors; c++ {
			if !used[c] {
				assigned = c
				break
			}
		}
		if assigned == tpl.Uncolored {
			// Un-insert the redundant via.
			h.occ[vl].Remove(pt)
			s.Inserted[i] = -1
			continue
		}
		s.RedColors[i] = assigned
		colorAt[h.siteOf(vl, pt)] = assigned
	}
}
