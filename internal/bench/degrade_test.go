package bench

import (
	"context"
	"testing"
	"time"

	"repro/internal/coloring"
)

func hasStep(steps []string, want string) bool {
	for _, s := range steps {
		if s == want {
			return true
		}
	}
	return false
}

// An already-expired TPL budget degrades the violation-removal phase:
// the run still succeeds, is congestion-free (the verifier's geometry
// and short checks stay fully enforced), reports the remaining FVPs
// honestly, and is deterministic across runs.
func TestDegradeTPLBudget(t *testing.T) {
	nl := Generate(TinySuite()[0])
	spec := RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: HeurDVI, Degrade: true, TPLBudget: time.Nanosecond, Verify: true,
	}
	row, art, err := Run(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hasStep(art.Degraded, "tpl-rr-timeout") {
		t.Fatalf("Degraded = %v, want tpl-rr-timeout", art.Degraded)
	}
	if art.Verify == nil {
		t.Fatal("Verify requested but no report attached")
	}
	if err := art.Verify.Err(); err != nil {
		t.Fatalf("verifier rejects the degraded solution: %v", err)
	}
	if row.Routability != 1 {
		t.Fatalf("routability %v in degraded run", row.Routability)
	}
	if st := art.Router.Stats(); !st.TPLDegraded || st.RemainingFVPs != art.RemainingFVPs {
		t.Fatalf("stats %+v inconsistent with artifacts (remaining %d)", st, art.RemainingFVPs)
	}

	// Determinism: the degraded path takes no timing-dependent branch
	// beyond the (always-expired) deadline, so a second run is
	// identical.
	row2, art2, err := Run(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	row.RouteCPU, row.DVICPU, row2.RouteCPU, row2.DVICPU = 0, 0, 0, 0
	if row != row2 || art.RemainingFVPs != art2.RemainingFVPs {
		t.Fatalf("degraded runs differ:\n%+v (rem %d)\n%+v (rem %d)",
			row, art.RemainingFVPs, row2, art2.RemainingFVPs)
	}
}

// An exhausted ILP budget under Degrade falls back to the paper's
// heuristic instead of failing, flags the result, and matches a plain
// heuristic run exactly.
func TestDegradeILPTimeLimit(t *testing.T) {
	nl := Generate(TinySuite()[0])
	spec := RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: ILPDVI, ILPTimeLimit: time.Nanosecond, Degrade: true, Verify: true,
	}
	row, art, err := Run(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hasStep(art.Degraded, "dvi-ilp-timeout") {
		t.Fatalf("Degraded = %v, want dvi-ilp-timeout", art.Degraded)
	}
	if err := art.Verify.Err(); err != nil {
		t.Fatalf("verifier rejects the degraded solution: %v", err)
	}

	heur := spec
	heur.Method = HeurDVI
	heur.Degrade = false
	heur.ILPTimeLimit = 0
	hrow, _, err := Run(nl, heur)
	if err != nil {
		t.Fatal(err)
	}
	if row.DV != hrow.DV || row.UV != hrow.UV {
		t.Fatalf("degraded ILP row DV/UV %d/%d differs from heuristic %d/%d",
			row.DV, row.UV, hrow.DV, hrow.UV)
	}
}

// Without the Degrade flag the budgets are inert: the run must behave
// exactly like an unbudgeted one and report no degradation.
func TestBudgetsInertWithoutDegrade(t *testing.T) {
	nl := Generate(TinySuite()[0])
	spec := RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: HeurDVI, TPLBudget: time.Nanosecond, Verify: true,
	}
	_, art, err := Run(nl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Degraded) != 0 {
		t.Fatalf("Degraded = %v without the Degrade flag", art.Degraded)
	}
	if art.Router.Stats().TPLDegraded {
		t.Fatal("TPL phase degraded without the Degrade flag")
	}
	if err := art.Verify.Err(); err != nil {
		t.Fatal(err)
	}
}

// hardILPCircuit is efc-mp generated from seed 887130. Routed under
// SID, its DVI instance holds a conflict component that 5 000 000 nodes
// of the exact search do not prove (about 0.8 s on a 2-core x86 VM),
// so a 50 ms limit always stops the solve and 100 nodes always cap it
// first.
func hardILPCircuit() Circuit {
	c := TinyMultiPinSuite()[1]
	c.Seed = 887130
	return c
}

// The ILP's two limits are told apart. A stop by the wall-clock limit
// depends on the machine, so it is flagged whether or not Degrade is
// set; a stop by the node limit is a deterministic function of the
// input and spec and is never flagged.
func TestILPStopsFlaggedByCause(t *testing.T) {
	nl := Generate(hardILPCircuit())
	for _, degrade := range []bool{false, true} {
		spec := RunSpec{
			Scheme: coloring.SID, ConsiderDVI: true, ConsiderTPL: true,
			Method: ILPDVI, ILPTimeLimit: 50 * time.Millisecond, Degrade: degrade,
		}
		_, art, err := Run(nl, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !art.Solution.TimedOut || !hasStep(art.Degraded, "dvi-ilp-timeout") {
			t.Fatalf("degrade=%v, 50 ms: TimedOut %v, Degraded %v; want a flagged timeout",
				degrade, art.Solution.TimedOut, art.Degraded)
		}
		spec.ILPNodeLimit = 100
		_, art, err = Run(nl, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !art.Solution.LimitHit || art.Solution.TimedOut || len(art.Degraded) != 0 {
			t.Fatalf("degrade=%v, 100 nodes: LimitHit %v, TimedOut %v, Degraded %v; want an unflagged node-cap stop",
				degrade, art.Solution.LimitHit, art.Solution.TimedOut, art.Degraded)
		}
	}
}

// ILPBudget is the one home of the exact solve's time policy: zero
// means DefaultILPTimeLimit, a context deadline caps the limit, and a
// deadline already past leaves a millisecond.
func TestILPBudget(t *testing.T) {
	bg := context.Background()
	if got := ILPBudget(bg, 0); got != DefaultILPTimeLimit {
		t.Fatalf("zero limit: %v, want %v", got, DefaultILPTimeLimit)
	}
	if got := ILPBudget(bg, time.Second); got != time.Second {
		t.Fatalf("no deadline: %v, want 1s", got)
	}
	ctx, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	if got := ILPBudget(ctx, 0); got > time.Minute || got < 50*time.Second {
		t.Fatalf("1-minute deadline over the default: %v", got)
	}
	if got := ILPBudget(ctx, time.Second); got != time.Second {
		t.Fatalf("1-minute deadline over 1s: %v, want 1s", got)
	}
	past, cancelPast := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancelPast()
	if got := ILPBudget(past, 0); got != time.Millisecond {
		t.Fatalf("past deadline: %v, want 1ms", got)
	}
}
