package router

import (
	"math/rand"
	"testing"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/tpl"
)

// refCosts is a test-only copy of the cost assignment as it was when
// the router kept semantic cost arrays beside its prices, every
// addition — AMC and TPLC included — went to the net's ledger and a
// rip-up reverted the ledger entry by entry. It keeps its own arrays
// and reads the live router's grid and routes.
type refCosts struct {
	metalCost, viaCost, metalPrice, viaPrice [][]int64
	viaConf                                  [][]int32
	histMetal, histVia                       [][]int64
	ledgers                                  [][]refEntry
}

type refEntry struct {
	kind   uint8 // 0 metal, 1 via, 2 conflict count
	layer  int32
	pidx   int32
	amount int64
}

func newRefCosts(rt *Router) *refCosts {
	np := rt.g.W * rt.g.H
	c := &refCosts{ledgers: make([][]refEntry, len(rt.nl.Nets))}
	for range rt.metalPrice {
		c.metalCost = append(c.metalCost, make([]int64, np))
		c.metalPrice = append(c.metalPrice, make([]int64, np))
		c.histMetal = append(c.histMetal, make([]int64, np))
	}
	for range rt.viaPrice {
		c.viaCost = append(c.viaCost, make([]int64, np))
		c.viaPrice = append(c.viaPrice, make([]int64, np))
		c.viaConf = append(c.viaConf, make([]int32, np))
		c.histVia = append(c.histVia, make([]int64, np))
	}
	return c
}

func (c *refCosts) add(rt *Router, kind uint8, layer int, p geom.Pt, amount int64, id int32) {
	pi := rt.g.PIdx(p)
	switch kind {
	case 0:
		c.metalCost[layer][pi] += amount
		c.metalPrice[layer][pi] += amount
	case 1:
		c.viaCost[layer][pi] += amount
		c.viaPrice[layer][pi] += amount
	case 2:
		c.viaConf[layer][pi] += int32(amount)
		c.viaPrice[layer][pi] += amount * rt.cfg.Params.Gamma * CostScale
	}
	c.ledgers[id] = append(c.ledgers[id], refEntry{kind, int32(layer), int32(pi), amount})
}

// apply is the ledgered applyNetCosts, verbatim but for its sink.
func (c *refCosts) apply(rt *Router, id int32) {
	r := rt.routes[id]
	if r == nil || r.Empty() {
		return
	}
	P := rt.cfg.Params
	if rt.cfg.ConsiderDVI {
		for _, b := range r.ViaList() {
			v := dvi.Via{Net: r.Net, Base: b}
			feasible := rt.feas.FeasibleDVICs(r, v)
			if len(feasible) == 0 {
				continue
			}
			bdc := P.Alpha * CostScale / int64(len(feasible))
			cdc := P.Beta * CostScale / int64(len(feasible))
			for _, f := range feasible {
				c.add(rt, 1, v.Layer(), f, bdc, id)
				c.add(rt, 0, v.Base.Layer, f, bdc, id)
				c.add(rt, 0, v.Base.Layer+1, f, bdc, id)
				for _, off := range dvi.DVICOffsets {
					w := f.Add(off.X, off.Y)
					if w == v.Pos() || !rt.g.InPlane(w) {
						continue
					}
					c.add(rt, 1, v.Layer(), w, cdc, id)
				}
			}
		}
		amc := P.AMC * CostScale
		if amc > 0 {
			for _, p := range r.PointList() {
				for _, d := range geom.PlanarDirs {
					q := p.Pt2().Step(d)
					if !rt.g.InPlane(q) {
						continue
					}
					for _, vl := range [2]int{p.Layer - 1, p.Layer} {
						if vl >= 0 && vl < rt.g.NumLayers-1 {
							c.add(rt, 1, vl, q, amc, id)
						}
					}
				}
			}
		}
	}
	if rt.cfg.ConsiderTPL {
		for _, b := range r.ViaList() {
			v := dvi.Via{Net: r.Net, Base: b}
			for _, off := range tpl.ConflictOffsets {
				q := v.Pos().Add(off.X, off.Y)
				if rt.g.InPlane(q) {
					c.add(rt, 2, v.Layer(), q, 1, id)
				}
			}
		}
	}
}

// revert is the ledgered revertNetCosts.
func (c *refCosts) revert(rt *Router, id int32) {
	for _, e := range c.ledgers[id] {
		switch e.kind {
		case 0:
			c.metalCost[e.layer][e.pidx] -= e.amount
			c.metalPrice[e.layer][e.pidx] -= e.amount
		case 1:
			c.viaCost[e.layer][e.pidx] -= e.amount
			c.viaPrice[e.layer][e.pidx] -= e.amount
		case 2:
			c.viaConf[e.layer][e.pidx] -= int32(e.amount)
			c.viaPrice[e.layer][e.pidx] -= e.amount * rt.cfg.Params.Gamma * CostScale
		}
	}
	c.ledgers[id] = c.ledgers[id][:0]
}

func sameCosts(t *testing.T, step int, rt *Router, c *refCosts) {
	t.Helper()
	for l := range rt.metalPrice {
		for pi := range rt.metalPrice[l] {
			if rt.metalPrice[l][pi] != c.metalPrice[l][pi] {
				t.Fatalf("step %d: metal layer %d cell %d: price %d, reference %d (cost %d, history %d)", step, l, pi,
					rt.metalPrice[l][pi], c.metalPrice[l][pi], c.metalCost[l][pi], c.histMetal[l][pi])
			}
		}
	}
	for v := range rt.viaPrice {
		for pi := range rt.viaPrice[v] {
			if rt.viaPrice[v][pi] != c.viaPrice[v][pi] {
				t.Fatalf("step %d: via layer %d cell %d: price %d, reference %d (cost %d, conf %d, history %d)", step, v, pi,
					rt.viaPrice[v][pi], c.viaPrice[v][pi], c.viaCost[v][pi], c.viaConf[v][pi], c.histVia[v][pi])
			}
		}
	}
}

// TestCostsMatchLedgeredReference: random route/rip sequences, with
// history bumps between them, keep every price equal to the ledgered
// reference's; ripping every net leaves the reference's costs and
// conflict counts at zero and each price equal to the history the test
// applied.
func TestCostsMatchLedgeredReference(t *testing.T) {
	for _, cfg := range []Config{
		{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true},
		{Scheme: coloring.Scheme{Type: coloring.SID}, ConsiderDVI: true, ConsiderTPL: true},
		{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderTPL: true, Params: ConferenceParams()},
	} {
		nl := randomNetlist("ledger-ref", 32, 32, 40, 23)
		rt, err := New(nl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCosts(rt)
		rng := rand.New(rand.NewSource(int64(cfg.Scheme.Type) + 5))
		routed := make([]bool, len(nl.Nets))
		np := rt.g.W * rt.g.H
		for step := 0; step < 400; step++ {
			id := int32(rng.Intn(len(nl.Nets)))
			if routed[id] {
				ref.revert(rt, id)
				rt.ripUp(id)
			} else {
				if err := rt.rerouteNet(id, "reroute"); err != nil {
					t.Fatal(err)
				}
				ref.apply(rt, id)
			}
			routed[id] = !routed[id]
			if step%5 == 0 {
				l, pi, a := rng.Intn(len(rt.metalPrice)), rng.Intn(np), int64(1+rng.Intn(40))
				rt.bumpHistMetal(l, pi, a)
				ref.histMetal[l][pi] += a
				ref.metalPrice[l][pi] += a
				v := rng.Intn(len(rt.viaPrice))
				rt.bumpHistVia(v, pi, a)
				ref.histVia[v][pi] += a
				ref.viaPrice[v][pi] += a
			}
			sameCosts(t, step, rt, ref)
		}
		for id, on := range routed {
			if on {
				ref.revert(rt, int32(id))
				rt.ripUp(int32(id))
			}
		}
		sameCosts(t, -1, rt, ref)
		for l := range ref.metalCost {
			for pi := range ref.metalCost[l] {
				if ref.metalCost[l][pi] != 0 || rt.metalPrice[l][pi] != ref.histMetal[l][pi] {
					t.Fatalf("metal layer %d cell %d after full rip-up: reference cost %d, price %d, history %d",
						l, pi, ref.metalCost[l][pi], rt.metalPrice[l][pi], ref.histMetal[l][pi])
				}
			}
		}
		for v := range ref.viaCost {
			for pi := range ref.viaCost[v] {
				if ref.viaCost[v][pi] != 0 || ref.viaConf[v][pi] != 0 || rt.viaPrice[v][pi] != ref.histVia[v][pi] {
					t.Fatalf("via layer %d cell %d after full rip-up: reference cost %d, conf %d, price %d, history %d",
						v, pi, ref.viaCost[v][pi], ref.viaConf[v][pi], rt.viaPrice[v][pi], ref.histVia[v][pi])
				}
			}
		}
	}
}
