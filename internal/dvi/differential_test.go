package dvi_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
)

// instances routes TinySuite, TinyMultiPinSuite and ScaledSuite(4) in
// both SADP modes, TPL-aware and not, and returns each routing's DVI
// instance, keyed by circuit, mode and "/noTPL" for the TPL-unaware
// ones, whose forbidden via patterns leave some vias uncolorable. The
// first call routes; later ones share its map.
func instances(t *testing.T) map[string]*dvi.Instance {
	t.Helper()
	routed.once.Do(func() { routed.m, routed.err = route() })
	if routed.err != nil {
		t.Fatal(routed.err)
	}
	return routed.m
}

var routed struct {
	once sync.Once
	m    map[string]*dvi.Instance
	err  error
}

func route() (map[string]*dvi.Instance, error) {
	out := map[string]*dvi.Instance{}
	var circuits []bench.Circuit
	circuits = append(circuits, bench.TinySuite()...)
	circuits = append(circuits, bench.TinyMultiPinSuite()...)
	circuits = append(circuits, bench.ScaledSuite(4)...)
	for _, ckt := range circuits {
		nl := bench.Generate(ckt)
		for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			for _, tplAware := range []bool{true, false} {
				name := fmt.Sprintf("%s/%v", ckt.Name, mode)
				if !tplAware {
					name += "/noTPL"
				}
				spec := bench.RunSpec{Scheme: mode, ConsiderDVI: true, ConsiderTPL: tplAware, Method: bench.HeurDVI}
				_, art, err := bench.Run(nl, spec)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				out[name] = art.Instance
			}
		}
	}
	return out, nil
}

// TestHeuristicMatchesReference holds the heuristic on flat site
// arrays to the map-based one it replaced, and Validate to its
// map-based reference on the solution and on corrupted copies.
func TestHeuristicMatchesReference(t *testing.T) {
	for name, in := range instances(t) { //sadplint:ordered each instance is checked on its own
		got := in.SolveHeuristic(dvi.DefaultHeurParams())
		want := dvi.RefSolveHeuristic(in, dvi.DefaultHeurParams())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: heuristic solution differs from the reference", name)
			continue
		}
		if got.InsertedCount == 0 {
			t.Errorf("%s: nothing inserted; the comparison shows little", name)
		}
		sameValidate(t, name, in, got)
		// Corrupt a spread of at most 24 vias.
		for i := 0; i < len(in.Vias); i += (len(in.Vias) + 23) / 24 {
			bad := copySol(got)
			bad.Colors[i] = 3
			sameValidate(t, name+"/color", in, bad)
			bad = copySol(got)
			if bad.Inserted[i] >= 0 {
				bad.RedColors[i] = bad.Colors[i]
				sameValidate(t, name+"/redcolor", in, bad)
			}
			for j := range in.Feas[i] {
				bad = copySol(got)
				if bad.Inserted[i] < 0 {
					bad.InsertedCount++
					bad.DeadVias--
				}
				bad.Inserted[i] = j
				bad.RedColors[i] = int8(j % 3)
				sameValidate(t, name+"/insert", in, bad)
			}
		}
	}
}

func sameValidate(t *testing.T, name string, in *dvi.Instance, s *dvi.Solution) {
	t.Helper()
	got, want := s.Validate(in), dvi.RefValidate(s, in)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: Validate = %v, reference %v", name, got, want)
	}
}

func copySol(s *dvi.Solution) *dvi.Solution {
	c := *s
	c.Inserted = append([]int(nil), s.Inserted...)
	c.Colors = append([]int8(nil), s.Colors...)
	c.RedColors = append([]int8(nil), s.RedColors...)
	return &c
}

// TestExactMatchesExhaustive holds the exact search to the exhaustive
// solver on every conflict component of at most 24 model binaries of
// the routed suites, each solved as an instance of its own.
func TestExactMatchesExhaustive(t *testing.T) {
	checked := 0
	for name, in := range instances(t) { //sadplint:ordered each instance is checked on its own
		for _, comp := range dvi.Components(in) {
			sub := &dvi.Instance{G: in.G}
			for _, v := range comp {
				sub.Vias = append(sub.Vias, in.Vias[v])
				sub.Feas = append(sub.Feas, in.Feas[v])
			}
			m, vars := sub.BuildILP()
			if m.NumVars() > 24 {
				continue
			}
			checked++
			want := dvi.RefSolveExhaustive(sub)
			s, err := sub.SolveILP(dvi.ILPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.ObjectiveOf(vars.Assignment(s)); got != want || s.LimitHit {
				t.Errorf("%s, component %v: objective %d (limit hit %v), exhaustive optimum %d", name, comp, got, s.LimitHit, want)
			}
		}
	}
	t.Logf("%d components checked", checked)
}

// TestILPModelVerifiesOwnSolution encodes each exact solution into
// BuildILP's variables and requires the model to accept it and to
// score it as the solution's stats do, on the routed suites at the
// goldens' node cap and on FuzzExact's seed instances uncapped.
func TestILPModelVerifiesOwnSolution(t *testing.T) {
	check := func(name string, in *dvi.Instance, limit int64) {
		s, err := in.SolveILP(dvi.ILPOptions{NodeLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		m, vars := in.BuildILP()
		x := vars.Assignment(s)
		if err := m.Verify(x); err != nil {
			t.Errorf("%s: the model rejects the solution: %v", name, err)
		}
		if got, want := m.ObjectiveOf(x), int64(s.InsertedCount)-(1<<20)*int64(s.Uncolorable); got != want {
			t.Errorf("%s: model objective %d, stats say %d", name, got, want)
		}
	}
	for name, in := range instances(t) { //sadplint:ordered each instance is checked on its own
		check(name, in, bench.DeterministicILPNodeLimit)
	}
	for i, seed := range dvi.ExactFuzzSeeds {
		check(fmt.Sprintf("seed %d", i), dvi.DecodeInstance(seed), 0)
	}
}
