package router

// Equivalence tests for the incremental TPL rip-up bookkeeping: at
// every iteration of removeTPLViolations the FVP set and the overflow
// sets behind Congestions must match full from-scratch rescans, and
// every congestion-free intermediate solution must pass the
// independent verifier. This keeps the incremental state honest — a
// drift would silently change routing results long before it broke a
// final check.

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/verify"
)

// crossCheckTPLState compares the incremental TPL bookkeeping against
// whole-grid reference scans.
func crossCheckTPLState(t *testing.T, rt *Router, iter int) {
	t.Helper()
	g := rt.Grid()
	// ripUp and commit keep the FVP set exact: it holds every live FVP
	// window and nothing else.
	live := 0
	for vl, lv := range g.Vias {
		for _, o := range lv.AllFVPs() {
			live++
			if !rt.fvps[fvpKey{vl, o}] {
				t.Fatalf("iter %d: FVP at %v layer %d missing from the FVP set", iter, o, vl)
			}
		}
	}
	if len(rt.fvps) != live {
		t.Fatalf("iter %d: FVP set holds %d windows, the full scan finds %d", iter, len(rt.fvps), live)
	}
	// Congestions (incremental overflow sets) must equal the reference
	// whole-grid overflow scan, including order.
	var want []geom.Pt3
	for l, occ := range g.Metal {
		occ.Overflows(func(p geom.Pt) {
			want = append(want, geom.XYL(p.X, p.Y, l))
		})
	}
	got := g.Congestions()
	if len(got) != len(want) {
		t.Fatalf("iter %d: Congestions returned %d points, reference scan %d", iter, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("iter %d: congestion %d is %v, reference scan says %v", iter, i, got[i], want[i])
		}
	}
}

// TestTPLIncrementalMatchesFullRescan routes seeded stress circuits
// with the per-iteration debug hook installed, cross-checking the
// incremental state against full rescans and running the independent
// verifier on every congestion-free intermediate solution.
func TestTPLIncrementalMatchesFullRescan(t *testing.T) {
	totalWork := 0
	for _, seed := range []int64{1, 5, 17, 33} {
		nl := randomNetlist("tplinc", 30, 30, 46, seed)
		rt, err := New(nl, Config{
			Scheme:      coloring.Scheme{Type: coloring.SIM},
			ConsiderDVI: true, ConsiderTPL: true,
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		iters := 0
		rt.debugTPLIter = func(iter int) {
			iters++
			crossCheckTPLState(t, rt, iter)
			// Every congestion-free intermediate state is a complete
			// (if not yet FVP-free) solution; the independent verifier
			// must accept its geometry and SADP turn legality.
			if g := rt.Grid(); len(g.Congestions()) == 0 {
				rep := verify.Routing(nl, rt.Routes(), verify.Options{SADP: coloring.SIM})
				if err := rep.Err(); err != nil {
					t.Fatalf("seed %d iter %d: verifier rejected intermediate solution: %v", seed, iter, err)
				}
			}
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if iters == 0 {
			t.Fatalf("seed %d: TPL iteration hook never fired", seed)
		}
		checkSolution(t, rt, nl)
		totalWork += rt.Stats().FVPsResolved + rt.Stats().RRIterations
	}
	if totalWork == 0 {
		t.Fatal("stress circuits produced no TPL work; the cross-checks never exercised a dirty state")
	}
}
