package bench

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/router"
)

// TestSearchCountersExact: router.Stats' Searches and Pops are exact
// work counters — equal across two fresh runs and between a fresh and
// an arena-recycled router, on every tiny circuit under both SADP
// schemes.
func TestSearchCountersExact(t *testing.T) {
	ctx := context.Background()
	for _, c := range TinySuite() {
		nl := Generate(c)
		for _, scheme := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			spec := RunSpec{Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: NoDVI}
			var got []router.Stats
			for i := 0; i < 2; i++ {
				_, art, err := RunContext(ctx, nl, spec)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, art.Router.Stats())
			}
			arena := router.NewArena()
			for i := 0; i < 2; i++ { // the second run rebinds recycled memory
				_, art, err := RunContextArena(ctx, nl, spec, arena)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, art.Router.Stats())
				arena.Release(art.Router)
			}
			if got[0].Searches == 0 || got[0].Pops < int64(got[0].Searches) {
				t.Fatalf("%s/%v: implausible counters: %d searches, %d pops", c.Name, scheme, got[0].Searches, got[0].Pops)
			}
			for i, st := range got[1:] {
				if st.Searches != got[0].Searches || st.Pops != got[0].Pops {
					t.Fatalf("%s/%v run %d: %d searches, %d pops; first run %d, %d",
						c.Name, scheme, i+1, st.Searches, st.Pops, got[0].Searches, got[0].Pops)
				}
			}
		}
	}
}

// TestRouteJSONRoundTrip: a route decoded from its JSON form reports
// the same geometry as the routed original, with no constructor
// involved: a Route literal rebuilds its derived state on the first
// query.
func TestRouteJSONRoundTrip(t *testing.T) {
	nl := Generate(TinySuite()[0])
	_, art, err := Run(nl, RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true, Method: NoDVI})
	if err != nil {
		t.Fatal(err)
	}
	routes := art.Router.Routes()
	b, err := json.Marshal(routes)
	if err != nil {
		t.Fatal(err)
	}
	var back []*grid.Route
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(routes) {
		t.Fatalf("decoded %d routes, want %d", len(back), len(routes))
	}
	vias := 0
	for id, r := range routes {
		d := back[id]
		if !slices.Equal(d.PointList(), r.PointList()) || !slices.Equal(d.ViaList(), r.ViaList()) ||
			!slices.Equal(d.ArmList(), r.ArmList()) || d.Wirelength() != r.Wirelength() {
			t.Fatalf("net %d: decoded route reports %d points, %d vias, WL %d; routed %d, %d, %d",
				id, len(d.PointList()), len(d.ViaList()), d.Wirelength(),
				len(r.PointList()), len(r.ViaList()), r.Wirelength())
		}
		for _, p := range r.PointList() {
			if d.ArmMask(p) != r.ArmMask(p) || !d.HasPoint(p) {
				t.Fatalf("net %d: decoded route differs at %v", id, p)
			}
		}
		vias += len(r.ViaList())
	}
	if vias == 0 || !back[0].HasPoint(routes[0].PointList()[0]) || back[0].HasPoint(geom.XYL(-1, 0, 0)) {
		t.Fatal("round trip exercised no vias or point lookups")
	}
}
