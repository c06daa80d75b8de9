package router

import "repro/internal/netlist"

// Arena recycles one router's memory across runs. A long-running
// service routes one job after another on the same worker; without
// recycling, every job re-allocates the full per-grid state (occupancy
// cells, price arrays, search scratch, route objects), all of
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

// reuse returns s resized to n zero values, keeping its storage when
// it is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reuseRows returns n rows of np zero values each, keeping the
// storage of the rows it is given.
func reuseRows[T any](rows [][]T, n, np int) [][]T {
	if len(rows) != n {
		rows = make([][]T, n)
	}
	for i := range rows {
		rows[i] = reuse(rows[i], np)
	}
	return rows
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
