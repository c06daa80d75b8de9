package dvi

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/ilp"
	"repro/internal/tpl"
)

// The ILP formulation of the TPL-aware DVI problem (§III-E,
// constraints C1–C8): the model of record, which the exact search
// (exact.go) solves without building it. Variables per via i: color
// indicators oV, gV, bV, an uncolorable indicator uV, and per feasible
// DVIC j: the insertion indicator D_ij plus its color indicators oD,
// gD, bD. The objective maximizes insertions minus a large penalty for
// uncolorable vias.

// bigBPrime is the big-M of the conditional color constraints (sums
// ≤ 4).
const bigBPrime = 8

// ILPVars records BuildILP's variable layout.
type ILPVars struct {
	colV [][3]int // per via: oV, gV, bV
	uV   []int
	d    [][]int    // per via, per candidate: D_ij
	colD [][][3]int // per via, per candidate: oD, gD, bD
	n    int        // number of model variables
}

// BuildILP constructs the paper's ILP for the instance. Tests check
// the exact search's solutions against it, and the benchmark harness
// reports its size.
func (in *Instance) BuildILP() (*ilp.Model, *ILPVars) {
	m := ilp.NewModel()
	n := len(in.Vias)
	v := &ILPVars{
		colV: make([][3]int, n),
		uV:   make([]int, n),
		d:    make([][]int, n),
		colD: make([][][3]int, n),
	}
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			v.colV[i][c] = m.AddVar(0)
		}
		v.uV[i] = m.AddVar(-bigB)
		v.d[i] = make([]int, len(in.Feas[i]))
		v.colD[i] = make([][3]int, len(in.Feas[i]))
		for j := range in.Feas[i] {
			v.d[i][j] = m.AddVar(1)
			for c := 0; c < 3; c++ {
				v.colD[i][j][c] = m.AddVar(0)
			}
		}
	}

	// C1: at most one redundant via per single via.
	for i := 0; i < n; i++ {
		if len(v.d[i]) == 0 {
			continue
		}
		terms := make([]ilp.Term, len(v.d[i]))
		for j, dv := range v.d[i] {
			terms[j] = ilp.Term{Var: dv, Coef: 1}
		}
		m.AddConstraint(terms, ilp.Leq, 1)
	}

	// C3: every via gets exactly one color or is uncolorable.
	for i := 0; i < n; i++ {
		m.AddConstraint([]ilp.Term{
			{Var: v.colV[i][0], Coef: 1}, {Var: v.colV[i][1], Coef: 1},
			{Var: v.colV[i][2], Coef: 1}, {Var: v.uV[i], Coef: 1},
		}, ilp.Eq, 1)
	}

	// C4: an inserted redundant via has exactly one color; an
	// uninserted one has none (the big-M pair collapses to equality
	// when D=1 and is vacuous when D=0 given color vars sum ≥ 0 —
	// forcing colors to zero when D=0 keeps the search space tight).
	for i := 0; i < n; i++ {
		for j := range v.d[i] {
			cd := v.colD[i][j]
			m.AddConstraint([]ilp.Term{
				{Var: cd[0], Coef: 1}, {Var: cd[1], Coef: 1}, {Var: cd[2], Coef: 1},
				{Var: v.d[i][j], Coef: -bigBPrime},
			}, ilp.Geq, 1-bigBPrime)
			m.AddConstraint([]ilp.Term{
				{Var: cd[0], Coef: 1}, {Var: cd[1], Coef: 1}, {Var: cd[2], Coef: 1},
				{Var: v.d[i][j], Coef: -1},
			}, ilp.Leq, 0)
		}
	}

	// Spatial constraint generation: index vias and candidates by via
	// layer and site.
	type siteRef struct {
		i, j int // j = -1 for an original via
	}
	byLayer := map[int]map[geom.Pt][]siteRef{}
	at := func(vl int, p geom.Pt) []siteRef { return byLayer[vl][p] }
	add := func(vl int, p geom.Pt, r siteRef) {
		if byLayer[vl] == nil {
			byLayer[vl] = map[geom.Pt][]siteRef{}
		}
		byLayer[vl][p] = append(byLayer[vl][p], r)
	}
	for i, via := range in.Vias {
		add(via.Layer(), via.Pos(), siteRef{i, -1})
		for j, c := range in.Feas[i] {
			add(via.Layer(), c, siteRef{i, j})
		}
	}
	// Constraint rows are emitted in (layer, row-major site) order so
	// the model — and with it the branch-and-bound path and node
	// counts — is identical run to run.
	layers := make([]int, 0, len(byLayer))
	for vl := range byLayer {
		layers = append(layers, vl)
	}
	sort.Ints(layers)
	sites := make(map[int][]geom.Pt, len(byLayer))
	for _, vl := range layers {
		ps := make([]geom.Pt, 0, len(byLayer[vl]))
		for p := range byLayer[vl] {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(a, b int) bool {
			if ps[a].Y != ps[b].Y {
				return ps[a].Y < ps[b].Y
			}
			return ps[a].X < ps[b].X
		})
		sites[vl] = ps
	}

	// C2: conflicting DVICs (same site, same layer, different vias)
	// cannot both be inserted.
	for _, vl := range layers {
		for _, p := range sites[vl] {
			refs := byLayer[vl][p]
			for a := 0; a < len(refs); a++ {
				for b := a + 1; b < len(refs); b++ {
					ra, rb := refs[a], refs[b]
					if ra.j < 0 || rb.j < 0 || ra.i == rb.i {
						continue
					}
					m.AddConstraint([]ilp.Term{
						{Var: v.d[ra.i][ra.j], Coef: 1},
						{Var: v.d[rb.i][rb.j], Coef: 1},
					}, ilp.Leq, 1)
				}
			}
		}
	}

	// C5–C7: same-color-pitch pairs. For each pair of sites within
	// pitch on the same layer, per color: both cannot take that color
	// (conditioned on insertion for DVICs).
	seen := map[[2]int]bool{} // dedup by model var id pair (smaller first)
	pairKey := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for _, vl := range layers {
		for _, p := range sites[vl] {
			refs := byLayer[vl][p]
			for _, off := range tpl.ConflictOffsets {
				q := p.Add(off.X, off.Y)
				for _, ra := range refs {
					for _, rb := range at(vl, q) {
						if ra.i == rb.i && ra.j == rb.j {
							continue
						}
						// Same via's original and its own candidate
						// still conflict (they are within pitch), so
						// no same-via exemption beyond identity.
						aOrig, bOrig := ra.j < 0, rb.j < 0
						var aCol, bCol [3]int
						if aOrig {
							aCol = v.colV[ra.i]
						} else {
							aCol = v.colD[ra.i][ra.j]
						}
						if bOrig {
							bCol = v.colV[rb.i]
						} else {
							bCol = v.colD[rb.i][rb.j]
						}
						if seen[pairKey(aCol[0], bCol[0])] {
							continue
						}
						seen[pairKey(aCol[0], bCol[0])] = true
						for c := 0; c < 3; c++ {
							terms := []ilp.Term{
								{Var: aCol[c], Coef: 1},
								{Var: bCol[c], Coef: 1},
							}
							// With C4 forcing colD to zero when D=0,
							// the pairwise bound needs no big-M: an
							// uninserted DVIC has no color.
							m.AddConstraint(terms, ilp.Leq, 1)
						}
					}
				}
			}
		}
	}
	v.n = m.NumVars()
	return m, v
}

// Assignment encodes a solution of the instance as a 0/1 assignment of
// BuildILP's variables, which the model's Verify checks and its
// ObjectiveOf scores.
func (v *ILPVars) Assignment(s *Solution) []int8 {
	x := make([]int8, v.n)
	for i := range v.uV {
		if c := s.Colors[i]; c >= 0 {
			x[v.colV[i][c]] = 1
		} else {
			x[v.uV[i]] = 1
		}
		if j := s.Inserted[i]; j >= 0 {
			x[v.d[i][j]] = 1
			if rc := s.RedColors[i]; rc >= 0 {
				x[v.colD[i][j][rc]] = 1
			}
		}
	}
	return x
}
