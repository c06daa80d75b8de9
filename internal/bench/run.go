package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/verify"
)

// DVIMethod selects the post-routing TPL-aware DVI solver.
type DVIMethod uint8

const (
	// ILPDVI solves the exact formulation C1–C8 (§III-E).
	ILPDVI DVIMethod = iota
	// HeurDVI runs the fast Algorithm 3 heuristic.
	HeurDVI
	// NoDVI skips post-routing DVI (routing-only measurements).
	NoDVI
)

func (m DVIMethod) String() string {
	switch m {
	case ILPDVI:
		return "ilp"
	case HeurDVI:
		return "heur"
	case NoDVI:
		return "none"
	}
	return fmt.Sprintf("DVIMethod(%d)", uint8(m))
}

// ParseDVIMethod reads a solver name: "ilp", "heur" or "none".
func ParseDVIMethod(s string) (DVIMethod, error) {
	switch strings.ToLower(s) {
	case "ilp":
		return ILPDVI, nil
	case "heur":
		return HeurDVI, nil
	case "none":
		return NoDVI, nil
	}
	return NoDVI, fmt.Errorf("unknown DVI method %q (want ilp, heur or none)", s)
}

// MarshalJSON encodes the method by name so RunSpec doubles as a
// human-readable wire format.
func (m DVIMethod) MarshalJSON() ([]byte, error) {
	switch m {
	case ILPDVI, HeurDVI, NoDVI:
		return json.Marshal(m.String())
	}
	return nil, fmt.Errorf("cannot marshal %v", m)
}

// UnmarshalJSON accepts the method name or the raw numeric value.
func (m *DVIMethod) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := ParseDVIMethod(s)
		if err != nil {
			return err
		}
		*m = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("DVI method: want \"ilp\", \"heur\", \"none\" or 0-2, got %s", b)
	}
	if n > uint8(NoDVI) {
		return fmt.Errorf("DVI method: numeric value %d out of range", n)
	}
	*m = DVIMethod(n)
	return nil
}

// RunSpec is one experiment configuration: a routing setup plus a
// post-routing DVI method. It is also the service/CLI wire format
// (internal/service/api), hence the JSON tags; durations travel as
// nanosecond integers.
type RunSpec struct {
	Scheme      coloring.SADPType `json:"scheme"`
	ConsiderDVI bool              `json:"consider_dvi"`
	ConsiderTPL bool              `json:"consider_tpl"`
	// Params defaults to router.DefaultParams when zero.
	Params router.Params `json:"params"`
	Method DVIMethod     `json:"method"`
	// ILPTimeLimit bounds the exact solve (0 = DefaultILPTimeLimit).
	ILPTimeLimit time.Duration `json:"ilp_time_limit,omitempty"`
	// ILPNodeLimit caps branch-and-bound nodes per component (0 = no
	// cap). Unlike the wall-clock limit it is deterministic: the same
	// instance and limit yield the same solution on any machine, which
	// is what the golden regression test pins down.
	ILPNodeLimit int64 `json:"ilp_node_limit,omitempty"`
	// TPLBudget bounds the wall-clock time of the TPL violation-removal
	// phase. It only takes effect with Degrade set: on expiry the phase
	// returns its congestion-free best-so-far solution and reports the
	// remaining FVPs instead of failing. Zero means no phase budget.
	TPLBudget time.Duration `json:"tpl_budget,omitempty"`
	// Degrade enables graceful degradation on budget expiry: the TPL
	// phase degrades per TPLBudget above, and an ILP DVI solve with no
	// time left, or one that ends without any solution, falls back to
	// the warm-start heuristic solution instead of the run failing. The
	// paper itself frames the Algorithm 3 heuristic as the fast
	// alternative to the exact ILP (~500–670× faster at a small DV/UV
	// cost), so the fallback is semantically principled. Each step is
	// recorded in Artifacts.Degraded. An ILP solve that its time limit
	// stopped records "dvi-ilp-timeout" with or without Degrade, since
	// its incumbent depends on the machine's speed; a node-limit stop
	// is deterministic and records nothing.
	Degrade bool `json:"degrade,omitempty"`
	// Deprecated: ignored; perfbench still names it.
	Queue router.QueueKind `json:"-"`
	// Topology selects the multi-pin net decomposition
	// (router.Config.Topology). Zero/absent = the Steiner tree
	// generator; "star" restores the legacy greedy order, which
	// changes routed geometry on nets with three or more pins.
	Topology router.TopologyKind `json:"topology,omitempty"`
	// Deprecated: ignored; perfbench still names it.
	Workers int `json:"-"`
	// Seed drives deterministic tie-breaking; it changes routing
	// output.
	Seed int64 `json:"seed,omitempty"`
	// Verify re-checks the finished flow with the independent
	// internal/verify checker; the report lands in Artifacts.Verify.
	// Verification never alters Row, only the verdict.
	Verify bool `json:"verify,omitempty"`
	// IncludeSolution embeds the marshaled routed solution (every net's
	// polylines) in the service result. The solution bytes are a pure
	// function of the input and spec — unlike the CPU-time fields of Row
	// they are bit-identical run to run, which is what the distributed
	// differential e2e byte-compares across cluster topologies.
	IncludeSolution bool `json:"include_solution,omitempty"`
}

// Row is one table line: the metrics the paper reports per circuit.
// Shared with the serving wire format, like RunSpec.
type Row struct {
	CKT  string `json:"ckt"`
	WL   int    `json:"wl"`
	Vias int    `json:"vias"`
	// RouteCPU is the detailed routing time ("CPU" in Tables III–V).
	RouteCPU time.Duration `json:"route_cpu_ns"`
	// DVICPU is the post-routing DVI time ("CPU" in Tables VI/VII).
	DVICPU time.Duration `json:"dvi_cpu_ns"`
	// DV is the dead via count after post-routing DVI.
	DV int `json:"dv"`
	// UV is the uncolorable via count in the DVI solution.
	UV int `json:"uv"`
	// Routability is 1.0 on success (the paper reports 100%
	// everywhere and so do we; kept for honesty).
	Routability float64 `json:"routability"`
}

// Artifacts exposes the solver state for further analysis (examples,
// extra validation in tests).
type Artifacts struct {
	Router   *router.Router
	Instance *dvi.Instance
	Solution *dvi.Solution
	// Degraded lists the steps whose output depends on a wall-clock
	// budget: "tpl-rr-timeout" and the "dvi-ilp-timeout" fallback
	// under RunSpec.Degrade, and "dvi-ilp-timeout" whenever the ILP's
	// time limit stopped its search. Empty on a run whose output is a
	// function of the input and spec alone.
	Degraded []string
	// RemainingFVPs counts FVP windows left by a degraded TPL phase.
	RemainingFVPs int
	// Verify is the independent checker's report when RunSpec.Verify
	// was set (nil otherwise).
	Verify *verify.Report
}

// Run routes the netlist under the spec and solves post-routing DVI.
func Run(nl *netlist.Netlist, spec RunSpec) (Row, *Artifacts, error) {
	return RunContext(context.Background(), nl, spec)
}

// RunContext is Run bounded by a context: cancellation aborts the
// router cooperatively at its next iteration boundary, and a deadline
// additionally caps the DVI ILP's time limit. The returned error wraps
// ctx.Err() when the context caused the abort.
func RunContext(ctx context.Context, nl *netlist.Netlist, spec RunSpec) (Row, *Artifacts, error) {
	return RunContextArena(ctx, nl, spec, nil)
}

// RunContextArena is RunContext with a router memory arena (may be
// nil): the router reuses the arena's recycled allocations when grid
// shapes match. The caller decides when the returned artifacts are no
// longer referenced and releases them with arena.Release(art.Router);
// this function never releases on its own. Output is bit-identical
// with or without an arena.
func RunContextArena(ctx context.Context, nl *netlist.Netlist, spec RunSpec, arena *router.Arena) (Row, *Artifacts, error) {
	cfg := router.Config{
		Scheme:      coloring.Scheme{Type: spec.Scheme},
		ConsiderDVI: spec.ConsiderDVI,
		ConsiderTPL: spec.ConsiderTPL,
		Params:      spec.Params,
		Topology:    spec.Topology,
		Seed:        spec.Seed,
		Arena:       arena,
		Cancel:      ctx.Done(),
	}
	if spec.Degrade {
		cfg.TPLBudget = spec.TPLBudget
	}
	rt, err := router.New(nl, cfg)
	if err != nil {
		return Row{}, nil, err
	}
	start := time.Now() //sadplint:ignore detclock CPU-time metric for the report table, not an algorithm input
	if err := rt.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Row{}, nil, fmt.Errorf("bench: routing %s: %w", nl.Name, ctxErr)
		}
		return Row{}, nil, fmt.Errorf("bench: routing %s: %w", nl.Name, err)
	}
	routeCPU := time.Since(start) //sadplint:ignore detclock CPU-time metric for the report table, not an algorithm input
	st := rt.Stats()
	row := Row{
		CKT:         nl.Name,
		WL:          st.Wirelength,
		Vias:        st.Vias,
		RouteCPU:    routeCPU,
		Routability: st.Routability,
	}
	art := &Artifacts{Router: rt}
	if st.TPLDegraded {
		art.Degraded = append(art.Degraded, "tpl-rr-timeout")
		art.RemainingFVPs = st.RemainingFVPs
	}
	if spec.Method == NoDVI {
		runVerify(nl, spec, art)
		return row, art, nil
	}

	if err := ctx.Err(); err != nil {
		return Row{}, nil, fmt.Errorf("bench: DVI on %s: %w", nl.Name, err)
	}
	in := dvi.NewInstance(rt.Grid(), rt.Routes())
	art.Instance = in
	dviStart := time.Now() //sadplint:ignore detclock CPU-time metric for the report table, not an algorithm input
	var sol *dvi.Solution
	switch spec.Method {
	case ILPDVI:
		limit := ILPBudget(ctx, spec.ILPTimeLimit)
		switch {
		case spec.Degrade && limit <= time.Millisecond:
			// No time left for the exact solve (not even to build the
			// model): degrade straight to the paper's fast heuristic.
			sol = in.SolveHeuristic(dvi.DefaultHeurParams())
			art.Degraded = append(art.Degraded, "dvi-ilp-timeout")
		default:
			sol, err = in.SolveILP(dvi.ILPOptions{TimeLimit: limit, NodeLimit: spec.ILPNodeLimit})
			switch {
			case err != nil && spec.Degrade:
				// The exact solve failed to produce any usable solution
				// within its limits; the heuristic is the degraded answer.
				sol = in.SolveHeuristic(dvi.DefaultHeurParams())
				art.Degraded = append(art.Degraded, "dvi-ilp-timeout")
			case err != nil:
				return Row{}, nil, fmt.Errorf("bench: ILP DVI on %s: %w", nl.Name, err)
			case sol.TimedOut:
				// The time limit expired mid-proof: the incumbent (never
				// worse than the warm-start heuristic) stands, flagged,
				// because another machine would have reached another
				// one. A node-limit stop is deterministic and is not.
				art.Degraded = append(art.Degraded, "dvi-ilp-timeout")
			}
		}
	case HeurDVI:
		sol = in.SolveHeuristic(dvi.DefaultHeurParams())
	default:
		return Row{}, nil, fmt.Errorf("bench: unknown DVI method %d", spec.Method)
	}
	row.DVICPU = time.Since(dviStart) //sadplint:ignore detclock CPU-time metric for the report table, not an algorithm input
	if err := sol.Validate(in); err != nil {
		return Row{}, nil, fmt.Errorf("bench: invalid DVI solution on %s: %w", nl.Name, err)
	}
	art.Solution = sol
	row.DV = sol.DeadVias
	row.UV = sol.Uncolorable
	runVerify(nl, spec, art)
	return row, art, nil
}

// DefaultILPTimeLimit is the exact DVI solve's wall-clock budget when
// a spec or caller leaves it zero.
const DefaultILPTimeLimit = 10 * time.Minute

// ILPBudget returns the time limit of an exact DVI solve asked to take
// at most limit (0 = DefaultILPTimeLimit) under ctx. A context deadline
// caps it, so a per-job timeout reaches the only unbounded solver in
// the flow; a deadline already past yields one millisecond: fail fast,
// not unbounded.
func ILPBudget(ctx context.Context, limit time.Duration) time.Duration {
	if limit == 0 {
		limit = DefaultILPTimeLimit
	}
	if dl, ok := ctx.Deadline(); ok {
		//sadplint:ignore detclock converts the caller's explicit ctx deadline into the ILP budget; no deadline, no clock read
		if rem := time.Until(dl); rem < limit {
			limit = rem
		}
		if limit <= 0 {
			limit = time.Millisecond
		}
	}
	return limit
}

// runVerify attaches the independent checker's report to the
// artifacts when the spec requests verification. Violations do not
// fail the run: callers decide whether a bad verdict is fatal (the
// CLI exits non-zero, the service reports it in the job result, the
// tests assert a clean report). On a degraded TPL phase the checker's
// via-manufacturability rules are relaxed — remaining FVPs are the
// declared, counted cost of the degradation — while geometry,
// connectivity, shorts and DVI constraints stay fully enforced.
func runVerify(nl *netlist.Netlist, spec RunSpec, art *Artifacts) {
	if !spec.Verify {
		return
	}
	tplDegraded := art.Router.Stats().TPLDegraded
	art.Verify = verify.Solution(nl, art.Router.Routes(), art.Instance, art.Solution, verify.Options{
		SADP:     spec.Scheme,
		CheckTPL: spec.ConsiderTPL && !tplDegraded,
	})
}
