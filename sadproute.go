// Package sadproute is the public facade of the reproduction of
// "Self-aligned double patterning-aware detailed routing with double
// via insertion and via manufacturability consideration" (Ding, Chu,
// Mak — DAC 2016).
//
// It routes a placed netlist on a color-pre-assigned multi-layer grid
// under SIM- or SID-type SADP design rules, optionally steering the
// router to preserve double-via-insertion opportunities and to keep
// via layers triple-patterning decomposable, and then inserts
// redundant vias post-routing with either the exact ILP or the fast
// heuristic of the paper.
//
// Quickstart:
//
//	nl, _ := netlist.Read(f)
//	res, err := sadproute.Route(nl, sadproute.Config{
//		SADP:        coloring.SIM,
//		ConsiderDVI: true,
//		ConsiderTPL: true,
//	})
//	sol, err := res.InsertDoubleVias(sadproute.Heuristic, 0)
//	fmt.Println(res.Stats.Wirelength, sol.DeadVias)
package sadproute

import (
	"context"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/decompose"
	"repro/internal/dvi"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/router"
)

// Config selects the SADP process and the router's considerations —
// the four experiment configurations of the paper's Tables III/IV.
type Config struct {
	// SADP is the process type: coloring.SIM or coloring.SID.
	SADP coloring.SADPType
	// ConsiderDVI enables the BDC/AMC/CDC cost assignment so routing
	// preserves double-via-insertion opportunities.
	ConsiderDVI bool
	// ConsiderTPL enables the TPLC cost, forbidden-via-pattern removal
	// and the 3-colorability guarantee on via layers.
	ConsiderTPL bool
	// Params overrides the routing cost parameters (zero value =
	// Table II defaults via router.DefaultParams).
	Params router.Params
	// Seed drives deterministic tie-breaking.
	Seed int64
}

// Result is a completed routing solution.
type Result struct {
	// Router is the underlying engine (grid, routes, stats).
	Router *router.Router
	// Grid is the routed multi-layer grid.
	Grid *grid.Grid
	// Stats are the wirelength/via/iteration counters.
	Stats router.Stats
}

// Method selects the post-routing TPL-aware DVI solver.
type Method uint8

const (
	// Heuristic is the O(n log n) Algorithm 3 solver.
	Heuristic Method = iota
	// ILP is the exact formulation C1–C8, warm-started from the
	// heuristic.
	ILP
)

// Route runs the full SADP-aware detailed routing flow (paper Fig 8)
// up to, and excluding, post-routing DVI. The returned error is
// non-nil if 100% routability or a violation-free state cannot be
// reached.
func Route(nl *netlist.Netlist, cfg Config) (*Result, error) {
	return RouteContext(context.Background(), nl, cfg)
}

// RouteContext is Route bounded by a context: cancellation (or a
// deadline) aborts the router cooperatively at its next iteration
// boundary and the error then wraps ctx.Err(). Routing output is
// unaffected for runs that complete — the cancel channel is only
// polled, never used for scheduling.
func RouteContext(ctx context.Context, nl *netlist.Netlist, cfg Config) (*Result, error) {
	rt, err := router.New(nl, router.Config{
		Scheme:      coloring.Scheme{Type: cfg.SADP},
		ConsiderDVI: cfg.ConsiderDVI,
		ConsiderTPL: cfg.ConsiderTPL,
		Params:      cfg.Params,
		Seed:        cfg.Seed,
		Cancel:      ctx.Done(),
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return &Result{Router: rt, Grid: rt.Grid(), Stats: rt.Stats()}, nil
}

// InsertDoubleVias solves the post-routing TPL-aware DVI problem on
// the solution. timeLimit bounds the ILP (0 = 10 minutes); it is
// ignored by the heuristic.
func (r *Result) InsertDoubleVias(m Method, timeLimit time.Duration) (*dvi.Solution, error) {
	return r.InsertDoubleViasContext(context.Background(), m, timeLimit)
}

// InsertDoubleViasContext is InsertDoubleVias with a context: a
// deadline additionally caps the ILP time limit, and an
// already-canceled context aborts before solving.
func (r *Result) InsertDoubleViasContext(ctx context.Context, m Method, timeLimit time.Duration) (*dvi.Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in := dvi.NewInstance(r.Grid, r.Router.Routes())
	if m == Heuristic {
		return in.SolveHeuristic(dvi.DefaultHeurParams()), nil
	}
	return in.SolveILP(dvi.ILPOptions{TimeLimit: bench.ILPBudget(ctx, timeLimit)})
}

// DVIInstance exposes the post-routing DVI problem for custom
// experimentation.
func (r *Result) DVIInstance() *dvi.Instance {
	return dvi.NewInstance(r.Grid, r.Router.Routes())
}

// CheckDecomposition synthesizes the SADP masks of the solution and
// runs the mask DRC (internal/decompose): the end-to-end validation
// that the routed metal stays SADP manufacturable.
func (r *Result) CheckDecomposition() *decompose.Result {
	return decompose.Decompose(r.Grid, r.Router.Routes())
}
