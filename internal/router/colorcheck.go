package router

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tpl"
)

// 3-colorability check of the decomposition graph (§III-D): even with
// all FVPs eliminated, rare cross-window structures ("wheel" patterns,
// Fig 11) can leave a via layer uncolorable. A greedy Welsh–Powell
// coloring of each via layer's decomposition graph detects them; any
// uncolorable via triggers a targeted rip-up-and-reroute. The paper
// reports this fix-up never fires in practice, and our experiments
// agree: no golden or benchmark circuit reaches it.
// TestColorFixUpRipsWheel drives it on a hand-built wheel.

// maxColorFixRounds bounds the fix-up loop; the expected round count is
// zero.
const maxColorFixRounds = 50

func (rt *Router) ensureColorable() error {
	for round := 0; ; round++ {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		uncolorable := rt.uncolorableVias()
		if len(uncolorable) == 0 {
			return nil
		}
		if round >= maxColorFixRounds {
			return fmt.Errorf("router: %d uncolorable vias remain after %d color fix rounds",
				len(uncolorable), round)
		}
		fvps := map[fvpKey]bool{}
		ripped := map[int32]bool{}
		for _, v := range uncolorable {
			// Make the offending via site expensive and move one of
			// its owners. A net already rerouted this round is left
			// alone — its new route reflects the bumped prices.
			pi := rt.g.PIdx(geom.XY(v.X, v.Y))
			rt.bumpHistVia(v.Layer, pi, rt.cfg.Params.HistInc*CostScale*2)
			rt.victimBuf = rt.appendViaOwners(rt.victimBuf[:0], v.Layer, geom.XY(v.X, v.Y))
			owners := rt.victimBuf
			if len(owners) == 0 {
				continue
			}
			id := owners[rt.rng.Intn(len(owners))]
			if ripped[id] {
				continue
			}
			ripped[id] = true
			rt.stats.ColorFixIterations++
			rt.ripUpTracked(id, fvps)
			if err := rt.rerouteTracked(id, fvps); err != nil {
				return fmt.Errorf("router: color fix reroute of net %d: %w", id, err)
			}
		}
		// The reroutes must not reintroduce FVPs or congestion; fall
		// back to the violation-removal loop if they did.
		if len(fvps) > 0 || len(rt.g.Congestions()) > 0 {
			if err := rt.removeTPLViolations(); err != nil {
				return err
			}
		}
	}
}

// uncolorableVias runs Welsh–Powell on each via layer's decomposition
// graph and returns via locations in components that are genuinely not
// 3-colorable. Greedy coloring can fail on colorable graphs, so each
// greedy failure is re-checked exactly on its (small) connected
// component before a rip-up is triggered.
func (rt *Router) uncolorableVias() []geom.Pt3 {
	var out []geom.Pt3
	for vl, lv := range rt.g.Vias {
		g := tpl.FromLayer(lv)
		_, unc := g.WelshPowell(tpl.NumColors)
		if len(unc) == 0 {
			continue
		}
		uncSet := map[int]bool{}
		for _, vi := range unc {
			uncSet[vi] = true
		}
		for _, comp := range g.Components() {
			hit := false
			for _, v := range comp {
				if uncSet[v] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			sub := make([]geom.Pt, len(comp))
			for i, v := range comp {
				sub[i] = g.Pts[v]
			}
			sg := tpl.NewGraph(sub)
			// A budget miss is treated as uncolorable: conservative,
			// and bounded components this size never miss in practice.
			if ok, _ := sg.ColorableExact(tpl.NumColors, 200_000); ok {
				continue
			}
			// Emit the whole component: uncolorability is a property of
			// the component's structure, not of the single vertex the
			// greedy pass happened to flag. The fix-up must be free to
			// move any member — ripping only the flagged via's owner can
			// oscillate forever when that via is pinned (e.g. it sits on
			// its net's own terminal) while the conflict is created
			// jointly with its neighbors.
			for _, v := range comp {
				p := g.Pts[v]
				out = append(out, geom.XYL(p.X, p.Y, vl))
			}
		}
	}
	return out
}
