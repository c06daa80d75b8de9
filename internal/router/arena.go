package router

import (
	"repro/internal/dvi"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/steiner"
)

// Arena recycles one router's memory across runs. A long-running
// service routes one job after another on the same worker; without
// recycling, every job re-allocates the full per-grid state (occupancy
// cells, cost and price arrays, search scratch, route objects), all of
// it short-lived garbage. An arena keeps the previous run's router and
// New rebinds it in place when the grid shape matches, so steady-state
// routing allocates close to nothing.
//
// Usage: pass the arena in Config.Arena, run the router, and call
// Release once the routes and grid are no longer referenced. Routing
// output is bit-identical with or without an arena — recycled memory
// is cleared or epoch-invalidated before reuse, and nothing the search
// reads survives a rebind. The router's batch-helper searchers are
// recycled with it; the helper goroutines never are: every Run joins
// its helpers before it returns.
//
// An Arena is single-owner state (one per worker goroutine); it is not
// safe for concurrent use.
type Arena struct {
	rt *Router
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Release hands a finished router's memory back to the arena. The
// caller must be completely done with the router, its routes and its
// grid: the next New with this arena overwrites them in place.
// Nil-safe on both the arena and the router.
func (a *Arena) Release(rt *Router) {
	if a == nil || rt == nil {
		return
	}
	a.rt = rt
}

// take removes and returns a recyclable router matching the netlist's
// grid shape, or nil. On a shape mismatch the stored router is kept
// for a later matching run.
func (a *Arena) take(nl *netlist.Netlist) *Router {
	if a == nil || a.rt == nil {
		return nil
	}
	rt := a.rt
	if rt.nl.W != nl.W || rt.nl.H != nl.H || rt.nl.NumLayers != nl.NumLayers {
		return nil
	}
	a.rt = nil
	return rt
}

// reinit rebinds a recycled router to a new netlist and config,
// reusing every allocation of its previous life. The grid shape must
// match (take guarantees it). Monotonic epochs — the search scratch's
// visit stamps and the TPL scan stamps — carry over instead of being
// zeroed: they are bumped before every use, so stale stamps can never
// match a new epoch.
func (rt *Router) reinit(nl *netlist.Netlist, cfg Config) {
	// Recycle the previous solution's Route objects first: their path
	// and cache storage feeds the new run's spare pool.
	for i, r := range rt.routes {
		if r != nil {
			r.Reset()
			rt.spareRoutes = append(rt.spareRoutes, r)
			rt.routes[i] = nil
		}
	}
	rt.cfg = cfg
	rt.nl = nl
	rt.g.Clear(cfg.Scheme)
	rt.noAStar = false
	rt.routes = resizeRoutes(rt.routes, len(nl.Nets))
	rt.ledgers = resizeLedgers(rt.ledgers, len(nl.Nets))
	rt.feas = dvi.Feasibility{G: rt.g}
	rt.rng.Seed(cfg.Seed + 1)
	rt.presFac = cfg.Params.UsagePenalty * CostScale
	rt.minViaCost = cfg.Params.ViaCost * CostScale
	rt.turnTab = buildTurnTab(cfg.Scheme, cfg.Params.NonPrefTurnCost*CostScale)
	clear(rt.pinOwner)
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			rt.pinOwner[p.Y*nl.W+p.X] = int32(n.ID) + 1
		}
	}
	rt.topos = resizeTopos(rt.topos, len(nl.Nets))
	clear(rt.steinerOwner)
	for l := range rt.metalCost {
		clear(rt.metalCost[l])
		clear(rt.histMetal[l])
		clear(rt.metalPrice[l])
	}
	for v := range rt.viaCost {
		clear(rt.viaCost[v])
		clear(rt.viaConf[v])
		clear(rt.histVia[v])
		clear(rt.blockVia[v])
		clear(rt.viaPrice[v])
	}
	rt.ignoreBlocks = false
	rt.stats = Stats{}
	rt.crew.handoffs = 0
	rt.debugLog, rt.debugVictim, rt.debugTPLIter, rt.debugCommit = nil, nil, nil, nil
}

// resizeTopos returns a nil-filled topology slice of length n, reusing
// the old backing array when it is large enough. Topologies are pure
// values of the previous netlist; none survive a rebind.
func resizeTopos(s []*steiner.Tree, n int) []*steiner.Tree {
	if cap(s) < n {
		return make([]*steiner.Tree, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeRoutes returns a nil-filled route slice of length n, reusing
// the old backing array when it is large enough.
func resizeRoutes(s []*grid.Route, n int) []*grid.Route {
	if cap(s) < n {
		return make([]*grid.Route, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeLedgers returns a ledger slice of length n with every ledger
// emptied, retaining per-net entry storage where the old slice had it.
func resizeLedgers(s []ledger, n int) []ledger {
	if cap(s) < n {
		ns := make([]ledger, n)
		copy(ns, s) // keep the entry storage the prefix had grown
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
