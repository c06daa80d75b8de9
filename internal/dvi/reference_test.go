package dvi

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/tpl"
)

// The heuristic and Solution.Validate as they were before their site
// look-ups moved from position-keyed maps to flat per-layer arrays,
// kept verbatim (names prefixed ref) as the reference of the
// differential tests: SolveHeuristic must return a deeply equal
// Solution, and Validate the same error text.

// refPrecolor is precolor before its map grouping became a counting
// pass.
func refPrecolor(in *Instance, s *Solution) {
	byLayer := map[int][]int{}
	layers := []int{}
	for i, v := range in.Vias {
		if byLayer[v.Layer()] == nil {
			layers = append(layers, v.Layer())
		}
		byLayer[v.Layer()] = append(byLayer[v.Layer()], i)
	}
	sort.Ints(layers)
	for _, vl := range layers {
		idxs := byLayer[vl]
		pts := make([]geom.Pt, len(idxs))
		for k, i := range idxs {
			pts[k] = in.Vias[i].Pos()
		}
		g := tpl.NewGraph(pts)
		colors, _ := g.WelshPowell(tpl.NumColors)
		for k, i := range idxs {
			s.Colors[i] = colors[k]
		}
	}
}

func refSolveHeuristic(in *Instance, p HeurParams) *Solution {
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
	refPrecolor(in, s)

	h := &refHeurState{in: in, sol: s, p: p}
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

type refHeurState struct {
	in  *Instance
	sol *Solution
	p   HeurParams

	pq candHeap
	// occ[vl] mirrors the via layer occupancy including inserted
	// redundant vias, for FVP checks.
	occ []*tpl.LayerVias
	// bySite[vl][pt] lists candidates at that site (conflicting DVICs
	// share a site).
	bySite []map[geom.Pt][]cand
	// protected[i]: via i already has a redundant via.
	protected []bool
	// candDead[via][j]: candidate invalidated (conflict taken, site
	// occupied, or FVP-blocked at insertion attempt).
	candDead [][]bool
}

func (h *refHeurState) build() {
	in := h.in
	h.protected = make([]bool, len(in.Vias))
	h.candDead = make([][]bool, len(in.Vias))
	nl := len(in.G.Vias)
	h.occ = make([]*tpl.LayerVias, nl)
	h.bySite = make([]map[geom.Pt][]cand, nl)
	for vl := 0; vl < nl; vl++ {
		w, hh := in.G.Vias[vl].Dims()
		h.occ[vl] = tpl.NewLayerVias(w, hh)
		h.bySite[vl] = map[geom.Pt][]cand{}
	}
	for _, v := range in.Vias {
		h.occ[v.Layer()].Add(v.Pos())
	}
	for i := range in.Vias {
		h.candDead[i] = make([]bool, len(in.Feas[i]))
		for j, c := range in.Feas[i] {
			h.bySite[in.Vias[i].Layer()][c] = append(h.bySite[in.Vias[i].Layer()][c], cand{i, j})
			heap.Push(&h.pq, heapItem{cand{i, j}, 0})
		}
	}
	// Initialize true DPs (setDP of Algorithm 3).
	for k := range h.pq {
		h.pq[k].dp = h.computeDP(h.pq[k].cand)
	}
	heap.Init(&h.pq)
}

// liveFeasCount counts via i's candidates that are still usable.
func (h *refHeurState) liveFeasCount(i int) int {
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
func (h *refHeurState) candValid(c cand) bool {
	if h.protected[c.via] || h.candDead[c.via][c.j] {
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
func (h *refHeurState) computeDP(c cand) int {
	in := h.in
	vl := in.Vias[c.via].Layer()
	pt := in.Feas[c.via][c.j]
	feas := h.liveFeasCount(c.via)
	conflicts := 0
	for _, other := range h.bySite[vl][pt] {
		if other.via != c.via && h.candValid(other) {
			conflicts++
		}
	}
	kills := h.countKills(vl, pt, c.via)
	return h.p.Delta*feas + h.p.Lambda*conflicts + h.p.Mu*kills
}

// countKills counts how many other vias' valid candidates would become
// FVP-blocked by inserting a via at pt.
func (h *refHeurState) countKills(vl int, pt geom.Pt, self int) int {
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
			for _, other := range h.bySite[vl][q] {
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
func (h *refHeurState) run() {
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
func (h *refHeurState) colorInserted() {
	in, s := h.in, h.sol
	// Color lookup per layer: site → color.
	colorAt := make([]map[geom.Pt]int8, len(h.occ))
	for vl := range colorAt {
		colorAt[vl] = map[geom.Pt]int8{}
	}
	for i, v := range in.Vias {
		colorAt[v.Layer()][v.Pos()] = s.Colors[i]
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
			if c, ok := colorAt[vl][pt.Add(off.X, off.Y)]; ok && c >= 0 {
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
		colorAt[vl][pt] = assigned
	}
}

func refValidate(s *Solution, in *Instance) error {
	if len(s.Inserted) != len(in.Vias) || len(s.Colors) != len(in.Vias) || len(s.RedColors) != len(in.Vias) {
		return fmt.Errorf("dvi: solution arrays sized %d/%d/%d for %d vias",
			len(s.Inserted), len(s.Colors), len(s.RedColors), len(in.Vias))
	}
	type site struct {
		vl int
		p  geom.Pt
	}
	type colored struct {
		site
		color int8
	}
	var all []colored
	occupied := map[site]bool{}
	for _, v := range in.Vias {
		occupied[site{v.Layer(), v.Pos()}] = true
	}
	inserted, dead, unc := 0, 0, 0
	for i := range in.Vias {
		v := in.Vias[i]
		j := s.Inserted[i]
		if j >= len(in.Feas[i]) {
			return fmt.Errorf("dvi: via %d inserted at out-of-range candidate %d", i, j)
		}
		if s.Colors[i] == tpl.Uncolored {
			unc++
		} else if s.Colors[i] < 0 || s.Colors[i] >= tpl.NumColors {
			return fmt.Errorf("dvi: via %d has invalid color %d", i, s.Colors[i])
		}
		all = append(all, colored{site{v.Layer(), v.Pos()}, s.Colors[i]})
		if j < 0 {
			dead++
			continue
		}
		inserted++
		rp := in.Feas[i][j]
		st := site{v.Layer(), rp}
		if occupied[st] {
			return fmt.Errorf("dvi: redundant via of via %d at %v collides", i, rp)
		}
		occupied[st] = true
		rc := s.RedColors[i]
		if rc < 0 || rc >= tpl.NumColors {
			return fmt.Errorf("dvi: redundant via of via %d has invalid color %d", i, rc)
		}
		all = append(all, colored{st, rc})
	}
	// Pairwise coloring legality within each via layer, in ascending
	// layer order so a multi-violation solution always reports the
	// same error.
	byLayer := map[int][]colored{}
	vls := []int{}
	for _, c := range all {
		if byLayer[c.vl] == nil {
			vls = append(vls, c.vl)
		}
		byLayer[c.vl] = append(byLayer[c.vl], c)
	}
	sort.Ints(vls)
	for _, vl := range vls {
		cs := byLayer[vl]
		pos := map[geom.Pt]int8{}
		for _, c := range cs {
			pos[c.p] = c.color
		}
		for _, c := range cs {
			if c.color == tpl.Uncolored {
				continue
			}
			for _, off := range tpl.ConflictOffsets {
				q := c.p.Add(off.X, off.Y)
				if oc, ok := pos[q]; ok && oc == c.color {
					return fmt.Errorf("dvi: same-color vias within pitch at %v and %v (layer %d)", c.p, q, vl)
				}
			}
		}
	}
	if s.InsertedCount != inserted || s.DeadVias != dead || s.Uncolorable != unc {
		return fmt.Errorf("dvi: stats mismatch: reported %d/%d/%d, actual %d/%d/%d",
			s.InsertedCount, s.DeadVias, s.Uncolorable, inserted, dead, unc)
	}
	return nil
}
