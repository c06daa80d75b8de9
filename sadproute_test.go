package sadproute

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
)

func TestFacadeEndToEnd(t *testing.T) {
	nl := bench.Generate(bench.TinySuite()[0])
	res, err := Route(nl, Config{SADP: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Routability != 1 {
		t.Fatalf("routability %v", res.Stats.Routability)
	}
	sol, err := res.InsertDoubleVias(Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(res.DVIInstance()); err != nil {
		t.Fatal(err)
	}
	if sol.Uncolorable != 0 {
		t.Errorf("heuristic left %d uncolorable vias", sol.Uncolorable)
	}
	dec := res.CheckDecomposition()
	if hv := dec.HardViolations(); len(hv) != 0 {
		t.Errorf("solution not SADP decomposable: %v", hv[0])
	}
}

func TestFacadeILP(t *testing.T) {
	nl := bench.Generate(bench.TinySuite()[0])
	res, err := Route(nl, Config{SADP: coloring.SID, ConsiderDVI: true, ConsiderTPL: true})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := res.InsertDoubleVias(Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	ilpSol, err := res.InsertDoubleVias(ILP)
	if err != nil {
		t.Fatal(err)
	}
	if ilpSol.DeadVias > heur.DeadVias {
		t.Errorf("ILP dead vias %d > heuristic %d", ilpSol.DeadVias, heur.DeadVias)
	}
}

func TestFacadeRejectsInvalid(t *testing.T) {
	nl := bench.Generate(bench.TinySuite()[0])
	nl.W = 0
	if _, err := Route(nl, Config{}); err == nil {
		t.Fatal("invalid netlist accepted")
	}
}
