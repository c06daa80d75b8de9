package router

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Hooks for the external tests in this directory (package router_test),
// which drive the router through internal/bench.

// SetHelperMinArea sets the predicted batch area at which batches are
// handed to helpers and returns a function that restores the old
// value.
func SetHelperMinArea(cells int) (restore func()) {
	old := helperMinArea
	helperMinArea = cells
	return func() { helperMinArea = old }
}

// SetPlanBlind makes batches ignore predicted footprints and returns
// a function that restores the planner.
func SetPlanBlind() (restore func()) {
	planBlind = true
	return func() { planBlind = false }
}

// SetBoundCheck makes every search assert the consistency of its A*
// bound on every relaxed edge, and returns a function that turns the
// check off again. Call it while no search runs.
func SetBoundCheck() (restore func()) {
	checkBound = true
	return func() { checkBound = false }
}

// Handoffs reports how many batches the router handed to helpers.
func (rt *Router) Handoffs() int { return rt.crew.handoffs }

// CheckCommitFootprints runs the flow on nl with every commit
// observed: each must change no price, occupancy or
// Steiner-claim cell, and ledger no entry, outside the net's write
// rect — the footprint the batch validation relies on. It returns the
// router after the run and the number of commits checked.
func CheckCommitFootprints(nl *netlist.Netlist, cfg Config) (*Router, int, error) {
	rt, err := New(nl, cfg)
	if err != nil {
		return nil, 0, err
	}
	var before, after footprint
	commits := 0
	var bad error
	rt.debugCommit = func(res *netRoute, done bool) {
		if !done {
			before.take(rt)
			return
		}
		commits++
		if bad != nil {
			return
		}
		w := rt.writeRect(res)
		after.take(rt)
		if err := before.diff(&after, w, rt.g.W); err != nil {
			bad = fmt.Errorf("commit %d (net %d, write rect %v): %w", commits, res.id, w, err)
			return
		}
		for _, e := range rt.ledgers[res.id] {
			p := geom.XY(int(e.pidx)%rt.g.W, int(e.pidx)/rt.g.W)
			if !w.Contains(p) {
				bad = fmt.Errorf("commit %d (net %d): ledger entry at %v outside write rect %v", commits, res.id, p, w)
				return
			}
		}
	}
	if err := rt.Run(); err != nil {
		return rt, commits, err
	}
	return rt, commits, bad
}

// footprint is a copy of every per-cell array a commit may write,
// named so a diff can say which one changed.
type footprint struct {
	names  []string
	arrays [][]int64
}

func (f *footprint) take(rt *Router) {
	f.names, f.arrays = f.names[:0], f.arrays[:0]
	add := func(name string, n int, at func(i int) int64) {
		k := len(f.names)
		f.names = append(f.names, name)
		if k < cap(f.arrays) {
			f.arrays = f.arrays[:k+1]
		} else {
			f.arrays = append(f.arrays, nil)
		}
		a := f.arrays[k][:0]
		for i := 0; i < n; i++ {
			a = append(a, at(i))
		}
		f.arrays[k] = a
	}
	np := rt.g.W * rt.g.H
	pt := func(i int) geom.Pt { return geom.XY(i%rt.g.W, i/rt.g.W) }
	for l := range rt.metalPrice {
		add(fmt.Sprintf("metalPrice[%d]", l), np, func(i int) int64 { return rt.metalPrice[l][i] })
		add(fmt.Sprintf("metal occupancy[%d]", l), np, func(i int) int64 { return int64(rt.g.Metal[l].Count(pt(i))) })
	}
	for v := range rt.viaPrice {
		add(fmt.Sprintf("viaPrice[%d]", v), np, func(i int) int64 { return rt.viaPrice[v][i] })
		add(fmt.Sprintf("via occupancy[%d]", v), np, func(i int) int64 {
			if rt.g.Vias[v].Has(pt(i)) {
				return 1
			}
			return 0
		})
	}
	add("steinerOwner", np, func(i int) int64 { return int64(rt.steinerOwner[i]) })
}

// diff reports the first cell that differs between f and g outside w.
func (f *footprint) diff(g *footprint, w geom.Rect, width int) error {
	for k, a := range f.arrays {
		b := g.arrays[k]
		for i := range a {
			if a[i] != b[i] {
				if p := geom.XY(i%width, i/width); !w.Contains(p) {
					return fmt.Errorf("%s changed at %v (%d → %d)", f.names[k], p, a[i], b[i])
				}
			}
		}
	}
	return nil
}
