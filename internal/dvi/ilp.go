package dvi

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/ilp"
	"repro/internal/tpl"
)

// The exact ILP formulation of the TPL-aware DVI problem (§III-E,
// constraints C1–C8), lowered onto the internal/ilp solver in place of
// Gurobi. Variables per via i: color indicators oV, gV, bV, an
// uncolorable indicator uV, and per feasible DVIC j: the insertion
// indicator D_ij plus its color indicators oD, gD, bD. The objective
// maximizes insertions minus a large penalty for uncolorable vias.

// ILPOptions bound the exact solve.
type ILPOptions struct {
	TimeLimit time.Duration
	NodeLimit int64
}

const (
	bigB      = 1 << 20 // objective penalty per uncolorable via
	bigBPrime = 8       // big-M for conditional color constraints (sums ≤ 4)
)

// ilpVars records the variable layout for decoding.
type ilpVars struct {
	colV [][3]int // per via: oV, gV, bV
	uV   []int
	d    [][]int    // per via, per candidate: D_ij
	colD [][][3]int // per via, per candidate: oD, gD, bD
}

// BuildILP constructs the paper's ILP for the instance. Exposed for
// tests and the benchmark harness (model size reporting).
func (in *Instance) BuildILP() (*ilp.Model, *ilpVars) {
	m := ilp.NewModel()
	n := len(in.Vias)
	v := &ilpVars{
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
	return m, v
}

// warmStart encodes a heuristic solution as an ILP assignment, seeding
// the branch and bound with a feasible incumbent.
func (in *Instance) warmStart(m *ilp.Model, vars *ilpVars, h *Solution) []int8 {
	x := make([]int8, m.NumVars())
	for i := range in.Vias {
		if c := h.Colors[i]; c >= 0 {
			x[vars.colV[i][c]] = 1
		} else {
			x[vars.uV[i]] = 1
		}
		if j := h.Inserted[i]; j >= 0 {
			x[vars.d[i][j]] = 1
			if rc := h.RedColors[i]; rc >= 0 {
				x[vars.colD[i][j][rc]] = 1
			}
		}
	}
	return x
}

// SolveILP solves the TPL-aware DVI ILP exactly (or to the limits) and
// decodes the result. The search starts from the Algorithm 3 heuristic
// solution as incumbent, so the result is never worse than the
// heuristic even under tight limits.
func (in *Instance) SolveILP(opts ILPOptions) (*Solution, error) {
	m, vars := in.BuildILP()
	warm := in.warmStart(m, vars, in.SolveHeuristic(DefaultHeurParams()))
	res := ilp.Solve(m, ilp.Options{TimeLimit: opts.TimeLimit, NodeLimit: opts.NodeLimit, WarmStart: warm})
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
	default:
		return nil, fmt.Errorf("dvi: ILP solve failed with status %v", res.Status)
	}
	n := len(in.Vias)
	s := &Solution{
		Inserted:  make([]int, n),
		Colors:    make([]int8, n),
		RedColors: make([]int8, n),
		LimitHit:  res.Status == ilp.Feasible,
		TimedOut:  res.TimedOut,
	}
	for i := 0; i < n; i++ {
		s.Inserted[i] = -1
		s.Colors[i] = tpl.Uncolored
		s.RedColors[i] = tpl.Uncolored
		for c := int8(0); c < 3; c++ {
			if res.X[vars.colV[i][c]] == 1 {
				s.Colors[i] = c
			}
		}
		if res.X[vars.uV[i]] == 1 {
			s.Uncolorable++
			s.Colors[i] = tpl.Uncolored
		}
		for j := range in.Feas[i] {
			if res.X[vars.d[i][j]] == 1 {
				s.Inserted[i] = j
				s.InsertedCount++
				for c := int8(0); c < 3; c++ {
					if res.X[vars.colD[i][j][c]] == 1 {
						s.RedColors[i] = c
					}
				}
			}
		}
	}
	s.DeadVias = n - s.InsertedCount
	return s, nil
}
