package router

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// sortedNetSet returns the set's members in ascending order, for
// deterministic rip-up processing.
func sortedNetSet(s map[int32]bool) []int32 {
	out := make([]int32, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolveCongestion is the negotiated-congestion rip-up-and-reroute of
// [20]: while any grid point is shared by distinct nets, bump the
// point's history cost, rip one of the offenders and reroute it under
// an escalating present-sharing penalty.
func (rt *Router) resolveCongestion() error {
	P := rt.cfg.Params
	for round := 0; ; round++ {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		cong := rt.g.Congestions()
		if len(cong) == 0 {
			return nil
		}
		if round%50 == 0 || len(cong) <= 2 {
			var detail string
			if len(cong) <= 2 {
				for _, p := range cong {
					detail += fmt.Sprintf(" %v:%v", p, rt.g.Metal[p.Layer].AppendNets(nil, p.Pt2()))
				}
			}
			rt.logf("congestion round %d: %d overflows%s", round, len(cong), detail)
		}
		if rt.stats.RRIterations >= rt.maxRRIters() {
			return fmt.Errorf("router: congestion unresolved after %d rip-up iterations (%d overflows left)",
				rt.stats.RRIterations, len(cong))
		}
		// Escalate the sharing penalty so later rounds separate nets
		// more aggressively. The escalation saturates so the unbounded
		// history cost eventually dominates route choice — otherwise a
		// single cheap-but-unresolvable crossing can stay the global
		// minimum forever.
		rt.escalatePresFac()

		toRip := map[int32]bool{}
		for _, p := range cong {
			pi := rt.g.PIdx(p.Pt2())
			rt.bumpHistMetal(p.Layer, pi, P.HistInc*CostScale)
			rt.netBuf = rt.g.Metal[p.Layer].AppendNets(rt.netBuf[:0], p.Pt2())
			nets := rt.netBuf
			if len(nets) == 0 {
				continue
			}
			// Rip one offender, rotated pseudo-randomly so no net is
			// permanently the victim.
			pick := nets[rt.rng.Intn(len(nets))]
			if rt.debugVictim != nil {
				rt.debugVictim(p, pick)
			}
			toRip[pick] = true
		}
		order := sortedNetSet(toRip)
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

// escalatePresFac raises the present-sharing penalty up to a
// saturation point (50× the base penalty).
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
