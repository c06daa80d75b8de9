package dvi_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
)

// instances routes TinySuite, TinyMultiPinSuite and ScaledSuite(4) in
// both SADP modes and returns each routing's DVI instance.
func instances(t *testing.T) map[string]*dvi.Instance {
	t.Helper()
	out := map[string]*dvi.Instance{}
	var circuits []bench.Circuit
	circuits = append(circuits, bench.TinySuite()...)
	circuits = append(circuits, bench.TinyMultiPinSuite()...)
	circuits = append(circuits, bench.ScaledSuite(4)...)
	for _, ckt := range circuits {
		nl := bench.Generate(ckt)
		for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			spec := bench.RunSpec{Scheme: mode, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
			_, art, err := bench.Run(nl, spec)
			if err != nil {
				t.Fatalf("%s/%v: %v", ckt.Name, mode, err)
			}
			out[fmt.Sprintf("%s/%v", ckt.Name, mode)] = art.Instance
		}
	}
	return out
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
