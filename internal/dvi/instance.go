package dvi

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/tpl"
)

// Instance is one post-routing TPL-aware DVI problem (§III-E): a
// routing solution's single vias with their feasible DVI candidates.
// The objective is to insert a redundant via for as many single vias
// as possible without breaking via-layer TPL decomposability or metal
// layer SADP decomposability.
type Instance struct {
	G      *grid.Grid
	Routes []*grid.Route
	// Vias lists every single via of the solution.
	Vias []Via
	// Feas[i] lists the feasible DVIC locations of Vias[i] (0 to 4).
	Feas [][]geom.Pt
}

// NewInstance gathers the vias of a routing solution and computes DVIC
// feasibility for each (§II-C).
func NewInstance(g *grid.Grid, routes []*grid.Route) *Instance {
	in := &Instance{G: g, Routes: routes}
	f := Feasibility{G: g}
	for _, r := range routes {
		if r == nil || r.Empty() {
			continue
		}
		for _, v := range ViasOf(r) {
			in.Vias = append(in.Vias, v)
			in.Feas = append(in.Feas, f.FeasibleDVICs(r, v))
		}
	}
	return in
}

// Solution is a DVI result: which candidate each via uses (or -1) and
// the TPL coloring of all vias.
type Solution struct {
	// Inserted[i] is the index into Feas[i] of the inserted redundant
	// via, or -1 when via i stays single (a dead via).
	Inserted []int
	// Colors[i] is the TPL mask (0..2) of original via i, or
	// tpl.Uncolored.
	Colors []int8
	// RedColors[i] is the TPL mask of via i's redundant via; valid when
	// Inserted[i] >= 0.
	RedColors []int8
	// Stats
	InsertedCount int
	DeadVias      int
	Uncolorable   int
	// LimitHit is set by SolveILP when a time or node limit stopped
	// the search before optimality was proven: the solution is the
	// best incumbent found — never worse than the warm-starting
	// heuristic — but possibly suboptimal. Heuristic solutions leave
	// it false.
	LimitHit bool
	// TimedOut is set by SolveILP when the wall-clock limit, not the
	// node limit, stopped the search of some component. The solution
	// then depends on the machine's speed; a node-limit stop alone
	// leaves it a deterministic function of the instance and limit.
	TimedOut bool
}

// redundantAt returns the location of via i's redundant via, or false.
func (s *Solution) redundantAt(in *Instance, i int) (geom.Pt, bool) {
	j := s.Inserted[i]
	if j < 0 {
		return geom.Pt{}, false
	}
	return in.Feas[i][j], true
}

// Validate checks the solution against the problem's hard constraints:
// each via at most one redundant via at a feasible candidate, no two
// inserted vias on the same site of the same layer, a proper pairwise
// TPL coloring (no same-color pair within the same-color via pitch),
// and stats consistent with the assignment. Uncolorable original vias
// are permitted only if counted.
func (s *Solution) Validate(in *Instance) error {
	if len(s.Inserted) != len(in.Vias) || len(s.Colors) != len(in.Vias) || len(s.RedColors) != len(in.Vias) {
		return fmt.Errorf("dvi: solution arrays sized %d/%d/%d for %d vias",
			len(s.Inserted), len(s.Colors), len(s.RedColors), len(in.Vias))
	}
	sites := newSiteStates(in.G)
	type colored struct {
		vl    int
		p     geom.Pt
		color int8
	}
	all := make([]colored, 0, 2*len(in.Vias))
	for _, v := range in.Vias {
		sites.set(v.Layer(), v.Pos(), tpl.Uncolored)
	}
	inserted, dead, unc := 0, 0, 0
	for i := range in.Vias {
		v := in.Vias[i]
		j := s.Inserted[i]
		if j < -1 || j >= len(in.Feas[i]) {
			return fmt.Errorf("dvi: via %d inserted at out-of-range candidate %d", i, j)
		}
		if s.Colors[i] == tpl.Uncolored {
			unc++
		} else if s.Colors[i] < 0 || s.Colors[i] >= tpl.NumColors {
			return fmt.Errorf("dvi: via %d has invalid color %d", i, s.Colors[i])
		}
		all = append(all, colored{v.Layer(), v.Pos(), s.Colors[i]})
		if j < 0 {
			dead++
			continue
		}
		inserted++
		rp := in.Feas[i][j]
		if sites.get(v.Layer(), rp) != siteFree {
			return fmt.Errorf("dvi: redundant via of via %d at %v collides", i, rp)
		}
		sites.set(v.Layer(), rp, tpl.Uncolored)
		rc := s.RedColors[i]
		if rc < 0 || rc >= tpl.NumColors {
			return fmt.Errorf("dvi: redundant via of via %d has invalid color %d", i, rc)
		}
		all = append(all, colored{v.Layer(), rp, rc})
	}
	// Pairwise coloring legality within each via layer, in ascending
	// layer order so a multi-violation solution always reports the
	// same error. A site holds the color of the last via placed on it.
	var vls []int
	for _, c := range all {
		sites.set(c.vl, c.p, c.color)
		if !slices.Contains(vls, c.vl) {
			vls = append(vls, c.vl)
		}
	}
	slices.Sort(vls)
	for _, vl := range vls {
		for _, c := range all {
			if c.vl != vl || c.color == tpl.Uncolored {
				continue
			}
			for _, off := range tpl.ConflictOffsets {
				q := c.p.Add(off.X, off.Y)
				if sites.get(vl, q) == c.color {
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

// siteStates holds one state per via site — siteFree, tpl.Uncolored
// for an occupied site, or the color of the last via placed there — in
// a flat array over the grid's via layers, with a side map for the
// sites off the grid that a hand-built instance can name.
type siteStates struct {
	w, h, layers int
	state        []int8
	off          map[geom.Pt3]int8 // keyed by (x, y, via layer)
}

const siteFree int8 = -2

func newSiteStates(g *grid.Grid) *siteStates {
	ss := &siteStates{}
	if g != nil && len(g.Vias) > 0 {
		ss.w, ss.h = g.Vias[0].Dims()
		ss.layers = len(g.Vias)
	}
	ss.state = make([]int8, ss.w*ss.h*ss.layers)
	for k := range ss.state {
		ss.state[k] = siteFree
	}
	return ss
}

func (ss *siteStates) get(vl int, p geom.Pt) int8 {
	if vl >= 0 && vl < ss.layers && p.X >= 0 && p.X < ss.w && p.Y >= 0 && p.Y < ss.h {
		return ss.state[(vl*ss.h+p.Y)*ss.w+p.X]
	}
	if st, ok := ss.off[geom.XYL(p.X, p.Y, vl)]; ok {
		return st
	}
	return siteFree
}

func (ss *siteStates) set(vl int, p geom.Pt, st int8) {
	if vl >= 0 && vl < ss.layers && p.X >= 0 && p.X < ss.w && p.Y >= 0 && p.Y < ss.h {
		ss.state[(vl*ss.h+p.Y)*ss.w+p.X] = st
		return
	}
	if ss.off == nil {
		ss.off = map[geom.Pt3]int8{}
	}
	ss.off[geom.XYL(p.X, p.Y, vl)] = st
}
