package router

import (
	"fmt"
	"time"

	"repro/internal/geom"
)

// Via-layer TPL violation removal rip-up-and-reroute (Algorithm 2,
// §III-C): eliminate every forbidden via pattern while keeping the
// solution congestion-free. Congestions outrank FVPs in the violation
// queue; via sites whose use would create an FVP are blocked for the
// searches, and history costs escalate on FVP vias so repeated
// offenders grow expensive.

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
	// FVP if used (Fig 10). Via-driven initialization instead of a
	// whole-grid sweep: a site can only be blocked when some 3×3 window
	// containing it already holds ≥3 vias, so only cells within
	// Chebyshev distance 2 of an occupied via site can block — examine
	// exactly those (deduplicated by an epoch stamp), leave the rest
	// untouched. blockVia is all-false on the first entry and kept
	// exact by refreshAround across every tracked rip-up/reroute, so
	// untouched cells are correct on re-entry too. Incremental updates
	// after each rip-up/reroute maintain it from here.
	for vl := range rt.blockVia {
		rt.initBlockedVias(vl)
	}

	// Initial FVP set (the priority queue's FVP entries), likewise
	// via-driven: every FVP window holds ≥4 vias, so checking the ≤9
	// windows around each occupied site finds them all. The map keying
	// makes the discovery order irrelevant, and since no via moves
	// meanwhile, a window the probe drops was never added.
	fvps := map[fvpKey]bool{}
	for vl, lv := range rt.g.Vias {
		rt.siteBuf = lv.AppendSites(rt.siteBuf[:0])
		for _, sp := range rt.siteBuf {
			rt.probeFVPs(vl, sp, fvps)
		}
	}

	congRounds := 0 // consecutive iterations that found congestion
	for iter := 0; ; iter++ {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		if rt.debugTPLIter != nil {
			rt.debugTPLIter(iter, fvps)
		}
		// Congestion has priority over FVPs (§III-C), and outranks the
		// phase budget too: a congested solution is shorted, so its
		// resolution continues even past the deadline.
		if cong := rt.g.Congestions(); len(cong) > 0 {
			if iter >= rt.maxTPLRRIters() {
				return fmt.Errorf("router: congestion unresolved after %d TPL R&R iterations", iter)
			}
			congRounds++
			if err := rt.resolveCongestionStep(cong, fvps, congRounds > unblockAfter); err != nil {
				return err
			}
			continue
		}
		congRounds = 0
		// Phase budget expired: return the congestion-free best-so-far
		// with an honest full recount of the remaining FVP windows.
		//sadplint:ignore detclock guarded by TPLBudget > 0, the explicit wall-clock degradation knob
		if !tplDeadline.IsZero() && time.Now().After(tplDeadline) {
			remaining := 0
			for _, lv := range rt.g.Vias {
				remaining += len(lv.AllFVPs())
			}
			rt.stats.TPLDegraded = true
			rt.stats.RemainingFVPs = remaining
			rt.stats.TPLRRIterations += iter
			return nil
		}
		// Drop stale FVP entries; pick the lexicographically first live
		// one for determinism.
		var pick *fvpKey
		//sadplint:ordered stale entries are deleted (order-free) and the pick is the fvpKeyLess minimum, independent of visit order
		for k := range fvps {
			if !rt.g.Vias[k.vl].WindowAt(k.origin).IsFVP() {
				delete(fvps, k)
				continue
			}
			if pick == nil || fvpKeyLess(k, *pick) {
				kk := k
				pick = &kk
			}
		}
		if pick == nil {
			// Paranoia: the incremental bookkeeping should never miss
			// an FVP; verify with one full scan before declaring
			// victory.
			clean := true
			for vl, lv := range rt.g.Vias {
				for _, o := range lv.AllFVPs() {
					fvps[fvpKey{vl, o}] = true
					clean = false
				}
			}
			if clean {
				rt.stats.TPLRRIterations += iter
				return nil
			}
			continue
		}
		if iter >= rt.maxTPLRRIters() {
			return fmt.Errorf("router: %d FVPs unresolved after %d TPL R&R iterations", len(fvps), iter)
		}

		// Choose a rip-up net among the nets owning vias of this FVP.
		victim := rt.pickFVPVictim(*pick)
		if victim < 0 {
			// Should not happen: an FVP window with no owning net.
			return fmt.Errorf("router: FVP at %v layer %d has no owner", pick.origin, pick.vl)
		}
		// History cost on the FVP's via sites: vias in FVPs grow more
		// expensive to use.
		rt.bumpFVPHistory(*pick, P.HistInc*CostScale)

		rt.ripUpTracked(victim, fvps)
		if err := rt.rerouteTracked(victim, fvps); err != nil {
			return fmt.Errorf("router: TPL R&R reroute of net %d: %w", victim, err)
		}
		rt.stats.FVPsResolved++
	}
}

// resolveCongestionStep rips and reroutes one offender per congested
// point (one pass), keeping FVP bookkeeping current. With unblock set
// the reroutes ignore blocked via sites.
func (rt *Router) resolveCongestionStep(cong []geom.Pt3, fvps map[fvpKey]bool, unblock bool) error {
	order := rt.congestionVictims(cong)
	for _, id := range order {
		rt.ripUpTracked(id, fvps)
	}
	rt.ignoreBlocks = unblock
	defer func() { rt.ignoreBlocks = false }()
	for _, id := range order {
		rt.stats.RRIterations++
		if err := rt.rerouteTracked(id, fvps); err != nil {
			return err
		}
	}
	return nil
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

// ripUpTracked rips a net and updates FVP and blocked-via bookkeeping
// around its removed vias. The via snapshot must be taken before the
// rip (ripUp recycles the Route) and lives in a recycled router
// buffer — the rip-up loops churn through thousands of nets.
//
//sadplint:hotpath runs once per ripped net in the TPL/congestion loops
func (rt *Router) ripUpTracked(id int32, fvps map[fvpKey]bool) {
	r := rt.routes[id]
	vias := rt.ripViasBuf[:0]
	if r != nil {
		vias = append(vias, r.ViaList()...)
	}
	rt.ripViasBuf = vias
	rt.ripUp(id)
	for _, v := range vias {
		rt.refreshAround(v.Layer, geom.XY(v.X, v.Y), fvps)
	}
}

// rerouteTracked reroutes a net and updates FVP and blocked-via
// bookkeeping around its new vias. Reroute-created FVPs enter the
// violation set (line 16–17 of Algorithm 2). When via-site blocking
// has walled the net in entirely, the search is retried without the
// blocks — any FVP that creates is queued and resolved by moving other
// nets instead.
func (rt *Router) rerouteTracked(id int32, fvps map[fvpKey]bool) error {
	err := rt.reroute(id)
	if err != nil && !rt.ignoreBlocks {
		rt.ignoreBlocks = true
		err = rt.reroute(id)
		rt.ignoreBlocks = false
		if err != nil {
			return err
		}
	}
	for _, v := range rt.routes[id].ViaList() {
		rt.refreshAround(v.Layer, geom.XY(v.X, v.Y), fvps)
	}
	return nil
}

// refreshAround re-examines the FVP windows containing the changed via
// site and the blocked state of nearby sites.
func (rt *Router) refreshAround(vl int, p geom.Pt, fvps map[fvpKey]bool) {
	rt.probeFVPs(vl, p, fvps)
	// Blocked-via status can change for sites whose windows overlap
	// the changed via: Chebyshev distance ≤ 2.
	area := geom.Rect{MinX: p.X - 2, MinY: p.Y - 2, MaxX: p.X + 2, MaxY: p.Y + 2}.
		Intersect(rt.g.Bounds())
	rt.rescanBlockedVias(vl, area)
}

// probeFVPs re-examines the nine 3×3 windows of via layer vl that
// contain site p: each one that is an FVP enters fvps, each other one
// leaves it.
func (rt *Router) probeFVPs(vl int, p geom.Pt, fvps map[fvpKey]bool) {
	lv := rt.g.Vias[vl]
	for dy := -2; dy <= 0; dy++ {
		for dx := -2; dx <= 0; dx++ {
			o := p.Add(dx, dy)
			k := fvpKey{vl, o}
			if lv.WindowAt(o).IsFVP() {
				fvps[k] = true
			} else {
				delete(fvps, k)
			}
		}
	}
}

// initBlockedVias computes the blocked state of one via layer by
// examining only cells near occupied via sites. Inserting a via at p
// can only create an FVP when a 3×3 window containing p already holds
// ≥3 vias, so every blockable cell lies within Chebyshev distance 2 of
// an occupied site; cells farther away are never blocked and are left
// untouched (they are already false: zero-initialized on the first
// entry, kept exact by refreshAround afterwards). Occupied sites
// themselves are within distance 0 of a site, so the lv.Has clearing
// of rescanBlockedVias is reproduced.
func (rt *Router) initBlockedVias(vl int) {
	lv := rt.g.Vias[vl]
	rt.siteBuf = lv.AppendSites(rt.siteBuf[:0])
	sites := rt.siteBuf
	if len(sites) == 0 {
		return
	}
	rt.scanEpoch++
	if rt.scanEpoch == 0 { // wrapped: invalidate all stamps
		for i := range rt.scanStamp {
			rt.scanStamp[i] = 0
		}
		rt.scanEpoch = 1
	}
	epoch := rt.scanEpoch
	b := rt.g.Bounds()
	for _, sp := range sites {
		y0, y1 := max(sp.Y-2, b.MinY), min(sp.Y+2, b.MaxY)
		x0, x1 := max(sp.X-2, b.MinX), min(sp.X+2, b.MaxX)
		for y := y0; y <= y1; y++ {
			base := y * rt.g.W
			for x := x0; x <= x1; x++ {
				pi := base + x
				if rt.scanStamp[pi] == epoch {
					continue
				}
				rt.scanStamp[pi] = epoch
				p := geom.XY(x, y)
				if lv.Has(p) {
					rt.blockVia[vl][pi] = false // occupied sites are priced, not blocked
				} else {
					rt.blockVia[vl][pi] = lv.WouldCreateFVP(p)
				}
			}
		}
	}
}

// rescanBlockedVias recomputes blockVia within the given area of one
// via layer: an unused site is blocked when inserting a via there
// would create an FVP (Fig 10).
func (rt *Router) rescanBlockedVias(vl int, area geom.Rect) {
	lv := rt.g.Vias[vl]
	for y := area.MinY; y <= area.MaxY; y++ {
		for x := area.MinX; x <= area.MaxX; x++ {
			p := geom.XY(x, y)
			pi := rt.g.PIdx(p)
			if lv.Has(p) {
				rt.blockVia[vl][pi] = false // occupied sites are priced, not blocked
				continue
			}
			rt.blockVia[vl][pi] = lv.WouldCreateFVP(p)
		}
	}
}
