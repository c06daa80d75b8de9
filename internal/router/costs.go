package router

import (
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/tpl"
)

// The cost assignment scheme (Algorithm 1): after a net is routed,
// penalty costs are added to the routing graph so later nets avoid
// harming DVI feasibility (BDC, AMC, CDC) and via-layer TPL
// decomposability (TPLC). Every cost, like every history bump, goes
// straight into the per-cell prices the search reads. BDC and CDC
// amounts depend on DVIC feasibility — surrounding state at the time
// they are computed — so each addition is recorded in the net's ledger
// and a rip-up reverts exactly what the net contributed. AMC and TPLC
// amounts depend on the route alone: a rip-up re-derives them from the
// still-intact route with the opposite sign.

// costKind discriminates ledger entries.
type costKind uint8

const (
	costMetal costKind = iota // metalPrice[layer][pidx] += amount
	costVia                   // viaPrice[vlayer][pidx] += amount
)

type costEntry struct {
	kind   costKind
	layer  int32
	pidx   int32
	amount int64
}

type ledger []costEntry

func (rt *Router) addMetalCost(layer int, p geom.Pt, amount int64, led *ledger) {
	pi := rt.g.PIdx(p)
	rt.metalPrice[layer][pi] += amount
	*led = append(*led, costEntry{kind: costMetal, layer: int32(layer), pidx: int32(pi), amount: amount})
}

func (rt *Router) addViaCost(vlayer int, p geom.Pt, amount int64, led *ledger) {
	pi := rt.g.PIdx(p)
	rt.viaPrice[vlayer][pi] += amount
	*led = append(*led, costEntry{kind: costVia, layer: int32(vlayer), pidx: int32(pi), amount: amount})
}

// bumpHistMetal raises a metal point's negotiated-congestion history.
// History is intentionally never reverted by rip-ups, so it has no
// ledger entry.
func (rt *Router) bumpHistMetal(layer int, pi int, amount int64) {
	rt.metalPrice[layer][pi] += amount
}

// bumpHistVia raises a via site's history.
func (rt *Router) bumpHistVia(vlayer int, pi int, amount int64) {
	rt.viaPrice[vlayer][pi] += amount
}

// applyNetCosts runs Algorithm 1 for a freshly routed net, ledgering
// its BDC and CDC.
func (rt *Router) applyNetCosts(id int32) {
	r := rt.routes[id]
	if r == nil || r.Empty() {
		return
	}
	if rt.cfg.ConsiderDVI {
		led := &rt.ledgers[id]
		P := rt.cfg.Params
		// BDC and CDC around each of the net's vias. Vias are built
		// inline from ViaList rather than via dvi.ViasOf so the hot
		// apply path does not allocate a slice per routed net.
		for _, b := range r.ViaList() {
			v := dvi.Via{Net: r.Net, Base: b}
			rt.dvicBuf = rt.feas.AppendFeasibleDVICs(rt.dvicBuf[:0], r, v)
			feasible := rt.dvicBuf
			if len(feasible) == 0 {
				continue
			}
			bdc := P.Alpha * CostScale / int64(len(feasible))
			cdc := P.Beta * CostScale / int64(len(feasible))
			for _, c := range feasible {
				// Block-DVIC via locations: a foreign via at the
				// feasible DVIC kills it outright...
				rt.addViaCost(v.Layer(), c, bdc, led)
				// ...and foreign metal crossing the DVIC on either
				// connected layer blocks the extension.
				rt.addMetalCost(v.Base.Layer, c, bdc, led)
				rt.addMetalCost(v.Base.Layer+1, c, bdc, led)
				// Conflict-DVIC via locations: vias whose own DVICs
				// would share site c (Fig 9(d)).
				for _, off := range dvi.DVICOffsets {
					w := c.Add(off.X, off.Y)
					if w == v.Pos() || !rt.g.InPlane(w) {
						continue
					}
					rt.addViaCost(v.Layer(), w, cdc, led)
				}
			}
		}
	}
	rt.routeCosts(r, 1)
}

// routeCosts adds (sign 1) or removes (sign −1) the costs whose
// amounts depend on the route alone: AMC and TPLC.
func (rt *Router) routeCosts(r *grid.Route, sign int64) {
	P := rt.cfg.Params
	if amc := sign * P.AMC * CostScale; rt.cfg.ConsiderDVI && amc != 0 {
		// AMC: via locations alongside the net's metal would have
		// their DVICs blocked by this metal (Fig 9(c)).
		for _, p := range r.PointList() {
			for _, d := range geom.PlanarDirs {
				q := p.Pt2().Step(d)
				if !rt.g.InPlane(q) {
					continue
				}
				pi := rt.g.PIdx(q)
				for _, vl := range [2]int{p.Layer - 1, p.Layer} {
					if vl >= 0 && vl < rt.g.NumLayers-1 {
						rt.viaPrice[vl][pi] += amc
					}
				}
			}
		}
	}
	if tplc := sign * P.Gamma * CostScale; rt.cfg.ConsiderTPL && tplc != 0 {
		// TPLC: each via raises the price of every via location within
		// same-color pitch by γ, so the search prices a prospective via
		// at γ × its coloring-conflict count (§III-B).
		for _, v := range r.ViaList() {
			for _, off := range tpl.ConflictOffsets {
				q := geom.XY(v.X+off.X, v.Y+off.Y)
				if rt.g.InPlane(q) {
					rt.viaPrice[v.Layer][rt.g.PIdx(q)] += tplc
				}
			}
		}
	}
}

// revertNetCosts undoes the net's costs. The net's route must still be
// the one its costs were applied for.
func (rt *Router) revertNetCosts(id int32) {
	rt.routeCosts(rt.routes[id], -1)
	for _, e := range rt.ledgers[id] {
		switch e.kind {
		case costMetal:
			rt.metalPrice[e.layer][e.pidx] -= e.amount
		case costVia:
			rt.viaPrice[e.layer][e.pidx] -= e.amount
		}
	}
	rt.ledgers[id] = rt.ledgers[id][:0]
}
