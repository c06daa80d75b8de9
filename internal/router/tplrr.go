package router

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Via-layer TPL violation removal rip-up-and-reroute (Algorithm 2,
// §III-C): eliminate every forbidden via pattern while keeping the
// solution congestion-free. Congestions outrank FVPs in the violation
// queue; via sites whose use would create an FVP are blocked for the
// searches, and history costs escalate on FVP vias so repeated
// offenders grow expensive. Congestion rounds run through the batch
// engine as in phase 2; an FVP victim reroutes as a one-net batch.

// fvpKey identifies an FVP window.
type fvpKey struct {
	vl     int
	origin geom.Pt
}

// unblockAfter is how many consecutive TPL-phase congestion rounds run
// with FVP-blocked via sites still closed. From the next round on, as
// long as congestion persists, the rounds' reroutes ignore the blocks:
// nets whose only block-free way out crosses another net's (pins in a
// corner whose own via sites are blocked) would otherwise trade one
// short for another forever. Any FVP an unblocked reroute creates
// re-enters the violation queue.
const unblockAfter = 16

func fvpKeyLess(a, b fvpKey) bool {
	if a.vl != b.vl {
		return a.vl < b.vl
	}
	if a.origin.Y != b.origin.Y {
		return a.origin.Y < b.origin.Y
	}
	return a.origin.X < b.origin.X
}

// removeTPLViolations runs the phase to a violation-free state or
// errors out when the iteration budget is exhausted. Under a
// Config.TPLBudget it instead degrades on expiry: congestion is still
// resolved (shorts are never acceptable), FVP work stops, and the
// unresolved windows are counted into Stats.
func (rt *Router) removeTPLViolations() error {
	P := rt.cfg.Params
	var tplDeadline time.Time
	if rt.cfg.TPLBudget > 0 {
		//sadplint:ignore detclock TPLBudget is an explicit wall-clock degradation knob; zero (the default) keeps the phase fully deterministic
		tplDeadline = time.Now().Add(rt.cfg.TPLBudget)
	}

	// Line 2 of Algorithm 2: block via locations that would create an
	// FVP if used (Fig 10). From here on every search asks
	// WouldCreateFVP at each via site it considers, so a block is never
	// stale and nothing needs initializing.
	//
	// The initial FVP set (the priority queue's FVP entries) is
	// via-driven: every FVP window holds ≥4 vias, so checking the ≤9
	// windows around each occupied site finds them all. From here on
	// ripUp and commit keep it exact.
	rt.tplPhase = true
	for vl, lv := range rt.g.Vias {
		rt.siteBuf = lv.AppendSites(rt.siteBuf[:0])
		for _, sp := range rt.siteBuf {
			rt.probeFVPs(vl, sp)
		}
	}

	congRounds := 0 // consecutive iterations that found congestion
	for iter := 0; ; iter++ {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		if rt.debugTPLIter != nil {
			rt.debugTPLIter(iter)
		}
		// Congestion has priority over FVPs (§III-C), and outranks the
		// phase budget too: a congested solution is shorted, so its
		// resolution continues even past the deadline.
		if cong := rt.g.Congestions(); len(cong) > 0 {
			if iter >= rt.maxTPLRRIters() {
				return fmt.Errorf("router: congestion unresolved after %d TPL R&R iterations", iter)
			}
			congRounds++
			rt.ignoreBlocks = congRounds > unblockAfter
			err := rt.congestionRound(cong)
			rt.ignoreBlocks = false
			if err != nil {
				return err
			}
			continue
		}
		congRounds = 0
		// Phase budget expired: return the congestion-free best-so-far
		// with the count of the remaining FVP windows.
		//sadplint:ignore detclock guarded by TPLBudget > 0, the explicit wall-clock degradation knob
		if !tplDeadline.IsZero() && time.Now().After(tplDeadline) {
			rt.stats.TPLDegraded = true
			rt.stats.RemainingFVPs = len(rt.fvps)
			rt.stats.TPLRRIterations += iter
			return nil
		}
		if len(rt.fvps) == 0 {
			rt.stats.TPLRRIterations += iter
			return nil
		}
		if iter >= rt.maxTPLRRIters() {
			return fmt.Errorf("router: %d FVPs unresolved after %d TPL R&R iterations", len(rt.fvps), iter)
		}
		pick := rt.firstFVP()

		// Choose a rip-up net among the nets owning vias of this FVP.
		victim := rt.pickFVPVictim(pick)
		if victim < 0 {
			// Should not happen: an FVP window with no owning net.
			return fmt.Errorf("router: FVP at %v layer %d has no owner", pick.origin, pick.vl)
		}
		// History cost on the FVP's via sites: vias in FVPs grow more
		// expensive to use.
		rt.bumpFVPHistory(pick, P.HistInc*CostScale)

		rt.ripUp(victim)
		if err := rt.rerouteNet(victim, "TPL R&R reroute"); err != nil {
			return err
		}
		rt.stats.FVPsResolved++
	}
}

// firstFVP returns the fvpKeyLess-least window of the non-empty FVP
// set: the pick does not depend on map order.
func (rt *Router) firstFVP() fvpKey {
	var pick fvpKey
	first := true
	//sadplint:ordered the pick is the fvpKeyLess minimum, independent of visit order
	for k := range rt.fvps {
		if first || fvpKeyLess(k, pick) {
			pick, first = k, false
		}
	}
	return pick
}

// pickFVPVictim selects a net owning a via inside the FVP window. The
// candidate list lives in a recycled router buffer: the rip-up loop
// calls this once per violation, thousands of times per job.
//
//sadplint:hotpath runs once per FVP violation in the TPL rip-up loop
func (rt *Router) pickFVPVictim(k fvpKey) int32 {
	candidates := rt.victimBuf[:0]
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			p := k.origin.Add(dx, dy)
			if !rt.g.Vias[k.vl].Has(p) {
				continue
			}
			candidates = rt.appendViaOwners(candidates, k.vl, p)
		}
	}
	rt.victimBuf = candidates
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rt.rng.Intn(len(candidates))]
}

// bumpFVPHistory raises the via history cost of every via site in the
// FVP window (line 15 of Algorithm 2).
func (rt *Router) bumpFVPHistory(k fvpKey, amount int64) {
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			p := k.origin.Add(dx, dy)
			if rt.g.InPlane(p) && rt.g.Vias[k.vl].Has(p) {
				rt.bumpHistVia(k.vl, rt.g.PIdx(p), amount)
			}
		}
	}
}

// trackFVPs keeps the FVP set exact in the TPL phase: after r's vias
// entered or left the grid, it re-examines every window containing
// one of them. Reroute-created FVPs enter the set this way (lines
// 16–17 of Algorithm 2).
//
//sadplint:hotpath runs once per committed or ripped net
func (rt *Router) trackFVPs(r *grid.Route) {
	if !rt.tplPhase {
		return
	}
	for _, v := range r.ViaList() {
		rt.probeFVPs(v.Layer, geom.XY(v.X, v.Y))
	}
}

// probeFVPs re-examines the nine 3×3 windows of via layer vl that
// contain site p: each one that is an FVP enters the FVP set, each
// other one leaves it.
func (rt *Router) probeFVPs(vl int, p geom.Pt) {
	lv := rt.g.Vias[vl]
	for dy := -2; dy <= 0; dy++ {
		for dx := -2; dx <= 0; dx++ {
			o := p.Add(dx, dy)
			k := fvpKey{vl, o}
			if lv.WindowAt(o).IsFVP() {
				rt.fvps[k] = true
			} else {
				delete(rt.fvps, k)
			}
		}
	}
}
