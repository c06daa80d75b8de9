package verify

import (
	"cmp"
	"slices"

	"repro/internal/dvi"
	"repro/internal/geom"
)

// Independent validation of a DVI assignment against the paper's
// constraints C1–C8 (§III-E): at most one redundant via per single via
// at a candidate the verifier's own feasibility re-check accepts (C1,
// the §II-C feasibility rules), no two insertions on one site and no
// insertion on an existing via (C2), every via exactly one color or
// counted uncolorable (C3, C4), no same-color pair within the
// same-color via pitch on a layer (C5–C7), and reported statistics
// matching a recount (the C8 objective accounting).

// siteLists is cellLists over the via-layer cells plus a side map for
// sites off the grid, which a forged instance or candidate can name.
// A site is named as a geom.Pt3 whose Layer is the via layer.
type siteLists struct {
	cellLists
	off map[geom.Pt3][]int32
}

// viaCell returns the via-layer cell of site (vl, p), or false when
// the site is off the grid.
func (c *checker) viaCell(vl int, p geom.Pt) (int, bool) {
	if vl < 0 || vl >= c.nl.NumLayers-1 || p.X < 0 || p.X >= c.w || p.Y < 0 || p.Y >= c.h {
		return 0, false
	}
	return (vl*c.h+p.Y)*c.w + p.X, true
}

func (c *checker) siteAdd(l *siteLists, vl int, p geom.Pt, v int32) {
	if cell, ok := c.viaCell(vl, p); ok {
		l.push(cell, v, false)
		return
	}
	if l.off == nil {
		l.off = map[geom.Pt3][]int32{}
	}
	k := geom.XYL(p.X, p.Y, vl)
	l.off[k] = append(l.off[k], v)
}

// siteAt returns the list at (vl, p); see cellLists.at for its
// lifetime.
func (c *checker) siteAt(l *siteLists, vl int, p geom.Pt) []int32 {
	if cell, ok := c.viaCell(vl, p); ok {
		return l.at(cell)
	}
	return l.off[geom.XYL(p.X, p.Y, vl)]
}

// checkDVI verifies the solution sol of instance in against the
// checker's independently reconstructed solution geometry.
func (c *checker) checkDVI(in *dvi.Instance, sol *dvi.Solution) {
	n := len(in.Vias)
	if len(sol.Inserted) != n || len(sol.Colors) != n || len(sol.RedColors) != n || len(in.Feas) != n {
		c.rep.add(DVIStatsMismatch, -1, geom.Pt3{},
			"solution arrays sized %d/%d/%d (feas %d) for %d vias",
			len(sol.Inserted), len(sol.Colors), len(sol.RedColors), len(in.Feas), n)
		return
	}

	c.checkInstanceVias(in)

	// Original vias occupy their sites; insertions must not collide
	// with them or with each other. occupied lists instance via
	// indices per site, colors the colors of the vias placed there.
	cells := len(c.via.one)
	occupied := siteLists{cellLists: newCellLists(cells)}
	colors := siteLists{cellLists: newCellLists(cells)}
	for i, v := range in.Vias {
		c.siteAdd(&occupied, v.Layer(), v.Pos(), int32(i))
	}
	inserted, dead, unc := 0, 0, 0

	for i := 0; i < n; i++ {
		v := in.Vias[i]
		j := sol.Inserted[i]
		if j < -1 || j >= len(in.Feas[i]) {
			c.rep.add(DVIBadIndex, v.Net, v.Base, "insertion index %d out of range of %d candidates", j, len(in.Feas[i]))
			continue
		}
		col := sol.Colors[i]
		switch {
		case col == -1:
			unc++
		case col < 0 || col >= 3:
			c.rep.add(DVIBadColor, v.Net, v.Base, "via color %d out of range", col)
		default:
			c.siteAdd(&colors, v.Layer(), v.Pos(), int32(col))
		}
		if j < 0 {
			dead++
			continue
		}
		inserted++
		cand := in.Feas[i][j]
		if v.Pos().ManhattanDist(cand) != 1 {
			c.rep.add(DVIInfeasible, v.Net, v.Base, "candidate %v is not adjacent to the via", cand)
			continue
		}
		if prior := c.siteAt(&occupied, v.Layer(), cand); len(prior) > 0 {
			c.rep.add(DVICollision, v.Net, geom.XYL(cand.X, cand.Y, v.Layer()),
				"redundant via collides with via(s) %v at %v", prior, cand)
		}
		c.siteAdd(&occupied, v.Layer(), cand, int32(i))
		c.checkInsertionFeasible(v, cand)
		rc := sol.RedColors[i]
		if rc < 0 || rc >= 3 {
			c.rep.add(DVIBadColor, v.Net, geom.XYL(cand.X, cand.Y, v.Layer()),
				"inserted redundant via has color %d (want 0..2)", rc)
		} else {
			c.siteAdd(&colors, v.Layer(), cand, int32(rc))
		}
	}

	c.checkColorConflicts(&colors)

	if sol.InsertedCount != inserted || sol.DeadVias != dead || sol.Uncolorable != unc {
		c.rep.add(DVIStatsMismatch, -1, geom.Pt3{},
			"reported inserted/dead/uncolorable %d/%d/%d, recounted %d/%d/%d",
			sol.InsertedCount, sol.DeadVias, sol.Uncolorable, inserted, dead, unc)
	}
}

// checkColorConflicts reports every same-colored pair within the
// pitch, in (layer, row-major site) order so the report diffs cleanly
// between runs: the grid's cells are scanned in that order, and the
// sorted off-grid sites are merged into the scan.
func (c *checker) checkColorConflicts(colors *siteLists) {
	off := make([]geom.Pt3, 0, len(colors.off))
	for k := range colors.off { //sadplint:ordered keys are sorted on the next line
		off = append(off, k)
	}
	slices.SortFunc(off, comparePt3)
	k := 0
	for cell, o := range colors.one {
		if o == 0 {
			continue
		}
		s := c.ptOf(cell)
		for ; k < len(off) && comparePt3(off[k], s) < 0; k++ {
			c.colorConflictsAt(colors, off[k])
		}
		c.colorConflictsAt(colors, s)
	}
	for ; k < len(off); k++ {
		c.colorConflictsAt(colors, off[k])
	}
}

// colorConflictsAt reports the conflicts of the vias at s with the
// same-colored vias at or after s in row-major order, so each pair is
// reported once, from its lexicographically smaller endpoint. Two vias
// stacked on one site (a collision, reported already) are not paired.
func (c *checker) colorConflictsAt(colors *siteLists, s geom.Pt3) {
	var buf [4]int32
	p, vl := s.Pt2(), s.Layer
	mine := append(buf[:0], c.siteAt(colors, vl, p)...)
	for _, col := range mine {
		for _, off := range conflictOffsets {
			q := p.Add(off.X, off.Y)
			if q.Y < p.Y || (q.Y == p.Y && q.X < p.X) {
				continue
			}
			for _, oc := range c.siteAt(colors, vl, q) {
				if oc == col {
					c.rep.add(DVIColorConflict, -1, s,
						"vias at %v and %v share color %d within pitch (via layer %d)", p, q, col, vl)
				}
			}
		}
	}
}

// routedVia returns the index in c.vias of the routed via v names, or
// -1 when its net is unknown or has no via at v.Base.
func (c *checker) routedVia(v dvi.Via) int {
	if v.Net < 0 || int(v.Net) >= len(c.nets) || !c.onGrid(v.Base) {
		return -1
	}
	sp := c.nets[v.Net]
	if k, ok := slices.BinarySearch(c.vias[sp.via0:sp.via1], c.cellOf(v.Base)); ok {
		return sp.via0 + k
	}
	return -1
}

// checkInstanceVias cross-checks the DVI instance's via list against
// the vias the verifier extracted from the routed geometry itself.
func (c *checker) checkInstanceVias(in *dvi.Instance) {
	if mine := len(c.vias); mine != len(in.Vias) {
		c.rep.add(DVIViaMismatch, -1, geom.Pt3{},
			"instance lists %d vias, routed solution has %d", len(in.Vias), mine)
	}
	// A via matching a routed via repeats an earlier one when that
	// routed via was matched before. The others (unknown net, or no
	// such via) are grouped by sorting; each group's first is new.
	var strays []int
	for i, v := range in.Vias {
		if c.routedVia(v) < 0 {
			strays = append(strays, i)
		}
	}
	var repeat []bool
	if len(strays) > 1 {
		repeat = make([]bool, len(in.Vias))
		slices.SortStableFunc(strays, func(a, b int) int { return compareVia(in.Vias[a], in.Vias[b]) })
		for k := 1; k < len(strays); k++ {
			repeat[strays[k]] = in.Vias[strays[k]] == in.Vias[strays[k-1]]
		}
	}
	seen := make([]bool, len(c.vias))
	for i, v := range in.Vias {
		g := c.routedVia(v)
		if g >= 0 && seen[g] || g < 0 && repeat != nil && repeat[i] {
			c.rep.add(DVIViaMismatch, v.Net, v.Base, "via listed twice in the instance")
			continue
		}
		switch {
		case g >= 0:
			seen[g] = true
		case v.Net < 0 || int(v.Net) >= len(c.nets):
			c.rep.add(DVIViaMismatch, v.Net, v.Base, "via owned by unknown net")
		default:
			c.rep.add(DVIViaMismatch, v.Net, v.Base, "instance via not present in the routed solution")
		}
	}
}

func compareVia(a, b dvi.Via) int {
	return cmp.Or(cmp.Compare(a.Net, b.Net), comparePt3(a.Base, b.Base))
}

// checkInsertionFeasible re-derives the §II-C DVIC feasibility of an
// accepted insertion: the candidate must be on the grid, its metal
// points on both connected layers free of other nets, and the one-unit
// metal extensions toward it must not form a forbidden turn with the
// owning net's existing arms (modulo the Fig 6(a) one-unit-extension
// exception).
func (c *checker) checkInsertionFeasible(v dvi.Via, cand geom.Pt) {
	at := geom.XYL(cand.X, cand.Y, v.Layer())
	if cand.X < 0 || cand.X >= c.nl.W || cand.Y < 0 || cand.Y >= c.nl.H {
		c.rep.add(DVIInfeasible, v.Net, at, "candidate %v outside the grid", cand)
		return
	}
	if v.Net < 0 || int(v.Net) >= len(c.nets) || !c.nets[v.Net].valid {
		return // geometry already reported
	}
	dx, dy := cand.X-v.Base.X, cand.Y-v.Base.Y
	var stubArm uint8
	switch {
	case dx == 1:
		stubArm = armE
	case dx == -1:
		stubArm = armW
	case dy == 1:
		stubArm = armN
	default:
		stubArm = armS
	}
	stubVertical := dy != 0

	for _, l := range [2]int{v.Base.Layer, v.Base.Layer + 1} {
		if mp := geom.XYL(cand.X, cand.Y, l); c.onGrid(mp) {
			for _, owner := range c.metal.at(c.cellOf(mp)) {
				if owner != v.Net {
					c.rep.add(DVIInfeasible, v.Net, at,
						"candidate metal point %v occupied by net %d", mp, owner)
				}
			}
		}
		arms := c.armsAt(v.Net, geom.XYL(v.Base.X, v.Base.Y, l))
		if arms&stubArm != 0 {
			continue // metal already runs toward the candidate
		}
		// The extension adds a one-unit stub; pairing it with each
		// existing perpendicular arm forms an L whose legality the
		// coloring must allow.
		perp := arms & (armN | armS)
		if stubVertical {
			perp = arms & (armE | armW)
		}
		for _, bit := range [4]uint8{armE, armW, armN, armS} {
			if perp&bit == 0 {
				continue
			}
			h, vv := stubArm, bit
			if stubVertical {
				h, vv = bit, stubArm
			}
			if forbiddenL(c.opt.SADP, geom.XY(v.Base.X, v.Base.Y), h, vv) &&
				!stubExtensionOK(c.opt.SADP, stubVertical) {
				c.rep.add(DVIInfeasible, v.Net, at,
					"metal extension on layer %d forms a forbidden turn at %v", l, v.Base.Pt2())
			}
		}
	}
}
