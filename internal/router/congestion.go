package router

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// resolveCongestion is the negotiated-congestion rip-up-and-reroute of
// [20]: while any grid point is shared by distinct nets, bump the
// point's history cost, rip one of the offenders and reroute it under
// an escalating present-sharing penalty.
func (rt *Router) resolveCongestion() error {
	for {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		cong := rt.g.Congestions()
		if len(cong) == 0 {
			return nil
		}
		if rt.stats.RRIterations >= rt.maxRRIters() {
			return fmt.Errorf("router: congestion unresolved after %d rip-up iterations (%d overflows left)",
				rt.stats.RRIterations, len(cong))
		}
		order := rt.congestionVictims(cong)
		for _, id := range order {
			rt.ripUp(id)
		}
		rt.stats.RRIterations += len(order)
		if id, err := rt.routeInOrder(order); err != nil {
			if id < 0 {
				return err
			}
			return fmt.Errorf("router: congestion reroute of net %d: %w", id, err)
		}
	}
}

// congestionVictims opens a congestion round, in phase 2 and in the
// TPL phase alike: it escalates the sharing penalty, bumps the history
// of every congested point and draws one of the point's occupants,
// rotated pseudo-randomly so no net is permanently the victim. It
// returns the distinct victims in ascending id order, in a buffer
// valid until the next round.
func (rt *Router) congestionVictims(cong []geom.Pt3) []int32 {
	// Escalating the sharing penalty makes later rounds separate nets
	// more aggressively.
	rt.escalatePresFac()
	hist := rt.cfg.Params.HistInc * CostScale
	victims := rt.congBuf[:0]
	for _, p := range cong {
		rt.bumpHistMetal(p.Layer, rt.g.PIdx(p.Pt2()), hist)
		rt.netBuf = rt.g.Metal[p.Layer].AppendNets(rt.netBuf[:0], p.Pt2())
		if nets := rt.netBuf; len(nets) > 0 {
			victims = append(victims, nets[rt.rng.Intn(len(nets))])
		}
	}
	slices.Sort(victims)
	victims = slices.Compact(victims)
	rt.congBuf = victims
	return victims
}

// escalatePresFac raises the present-sharing penalty up to a
// saturation point (50× the base penalty), so the unbounded history
// cost eventually dominates route choice — otherwise a single
// cheap-but-unresolvable crossing could stay the global minimum
// forever.
func (rt *Router) escalatePresFac() {
	P := rt.cfg.Params
	cap := 50 * P.UsagePenalty * CostScale
	if rt.presFac < cap {
		rt.presFac += P.UsagePenalty * CostScale / 2
	}
}

// appendViaOwners appends the nets owning a via at site p of via
// layer vl to dst, by scanning the nets whose metal occupies both
// endpoint layers — exactly the nets that could have placed the via.
// Append-style so hot callers (pickFVPVictim) recycle one buffer
// across the whole rip-up loop.
//
//sadplint:hotpath called per candidate site inside the TPL rip-up loop
func (rt *Router) appendViaOwners(dst []int32, vl int, p geom.Pt) []int32 {
	rt.netBuf = rt.g.Metal[vl].AppendNets(rt.netBuf[:0], p)
	for _, id := range rt.netBuf {
		r := rt.routes[id]
		if r == nil {
			continue
		}
		for _, v := range r.ViaList() {
			if v.Layer == vl && v.X == p.X && v.Y == p.Y {
				dst = append(dst, id)
				break
			}
		}
	}
	return dst
}
