package solution_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/solution"
	"repro/internal/tpl"
)

// routed is one small routed netlist with its heuristic DVI solution.
type routed struct {
	routes []*grid.Route
	in     *dvi.Instance
	sol    *dvi.Solution
}

var routedCache sync.Map // int64 → *routed

// smallRouted routes one of sixteen small random netlists, SIM or SID,
// two-pin or multi-pin, +DVI+TPL with heuristic DVI.
func smallRouted(tb testing.TB, seed int64) *routed {
	tb.Helper()
	seed &= 15
	if v, ok := routedCache.Load(seed); ok {
		return v.(*routed)
	}
	c := bench.Circuit{Name: fmt.Sprintf("s%d", seed), Nets: 4 + int(seed%5), W: 16, H: 16, Seed: 1000 + seed}
	if seed%3 == 2 {
		c.MaxPins = 5
	}
	scheme := coloring.SIM
	if seed%2 == 1 {
		scheme = coloring.SID
	}
	_, art, err := bench.Run(bench.Generate(c), bench.RunSpec{
		Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := &routed{routes: art.Router.Routes(), in: art.Instance, sol: art.Solution}
	routedCache.Store(seed, r)
	return r
}

// sameRoutes fails unless got holds want's routes: the same nil
// entries, nets and paths point for point.
func sameRoutes(t *testing.T, got, want []*grid.Route) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d routes, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if (g == nil) != (w == nil) {
			t.Fatalf("route %d: decoded nil %v, want nil %v", i, g == nil, w == nil)
		}
		if w == nil {
			continue
		}
		if g.Net != w.Net || len(g.Paths) != len(w.Paths) {
			t.Fatalf("route %d: decoded net %d with %d paths, want net %d with %d", i, g.Net, len(g.Paths), w.Net, len(w.Paths))
		}
		for k := range w.Paths {
			if !slices.Equal(g.Paths[k], w.Paths[k]) {
				t.Fatalf("route %d path %d: decoded %v, want %v", i, k, g.Paths[k], w.Paths[k])
			}
		}
	}
}

// sameDVI fails unless the decoded DVI solution assigns what sol of in
// assigns: the same vias, candidates, colors and statistics.
func sameDVI(t *testing.T, p *solution.Payload, in *dvi.Instance, sol *dvi.Solution) {
	t.Helper()
	if p.Instance == nil || p.DVI == nil {
		t.Fatal("decoded no DVI solution")
	}
	if !slices.Equal(p.Instance.Vias, in.Vias) {
		t.Fatalf("decoded %d vias, want %d in instance order", len(p.Instance.Vias), len(in.Vias))
	}
	got := p.DVI
	for k := range in.Vias {
		if got.Colors[k] != sol.Colors[k] {
			t.Fatalf("via %d: color %d, want %d", k, got.Colors[k], sol.Colors[k])
		}
		j := sol.Inserted[k]
		if (got.Inserted[k] >= 0) != (j >= 0) {
			t.Fatalf("via %d: inserted %d, want %d", k, got.Inserted[k], j)
		}
		if j < 0 {
			continue
		}
		if c := p.Instance.Feas[k][got.Inserted[k]]; c != in.Feas[k][j] || got.RedColors[k] != sol.RedColors[k] {
			t.Fatalf("via %d: redundant via at %v color %d, want %v color %d", k, c, got.RedColors[k], in.Feas[k][j], sol.RedColors[k])
		}
	}
	if got.InsertedCount != sol.InsertedCount || got.DeadVias != sol.DeadVias || got.Uncolorable != sol.Uncolorable {
		t.Fatalf("stats %d/%d/%d, want %d/%d/%d", got.InsertedCount, got.DeadVias, got.Uncolorable,
			sol.InsertedCount, sol.DeadVias, sol.Uncolorable)
	}
}

// roundTrip encodes, decodes and checks that the payload re-encodes to
// itself.
func roundTrip(t *testing.T, routes []*grid.Route, in *dvi.Instance, sol *dvi.Solution) *solution.Payload {
	t.Helper()
	b, err := solution.Encode(routes, in, sol)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solution.Decode(b)
	if err != nil {
		t.Fatalf("decode of an encoding: %v\n%s", err, b)
	}
	sameRoutes(t, p.Routes, routes)
	return p
}

// withGaps copies routes with route i set nil when bit 2i of mask is
// set, or emptied when bit 2i+1 is.
func withGaps(routes []*grid.Route, mask uint64) []*grid.Route {
	out := make([]*grid.Route, len(routes))
	for i, r := range routes {
		switch {
		case i < 32 && mask>>(2*i)&1 != 0:
		case i < 32 && mask>>(2*i+1)&1 != 0:
			out[i] = grid.NewRoute(r.Net)
		default:
			out[i] = &grid.Route{Net: r.Net, Paths: r.Paths}
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		rt := smallRouted(t, seed)
		sameDVI(t, roundTrip(t, rt.routes, rt.in, rt.sol), rt.in, rt.sol)
		if p := roundTrip(t, rt.routes, nil, nil); p.Instance != nil || p.DVI != nil {
			t.Fatalf("seed %d: a payload without DVI decoded one", seed)
		}
		gaps := withGaps(rt.routes, 0b0110)
		in, sol := unassigned(gaps)
		sameDVI(t, roundTrip(t, gaps, in, sol), in, sol)
	}
	for _, routes := range [][]*grid.Route{nil, {}, {nil}, {grid.NewRoute(0)}, {nil, grid.NewRoute(1)}} {
		roundTrip(t, routes, nil, nil)
		roundTrip(t, routes, &dvi.Instance{}, &dvi.Solution{})
	}
}

// unassigned returns the vias of routes in dvi.NewInstance order,
// without candidates, and an assignment that inserts nothing and
// leaves every via uncolored.
func unassigned(routes []*grid.Route) (*dvi.Instance, *dvi.Solution) {
	in := &dvi.Instance{Routes: routes}
	for _, r := range routes {
		if r != nil {
			in.Vias = append(in.Vias, dvi.ViasOf(r)...)
		}
	}
	n := len(in.Vias)
	in.Feas = make([][]geom.Pt, n)
	s := &dvi.Solution{Inserted: make([]int, n), Colors: make([]int8, n), RedColors: make([]int8, n), DeadVias: n, Uncolorable: n}
	for k := range s.Inserted {
		s.Inserted[k], s.Colors[k], s.RedColors[k] = -1, tpl.Uncolored, tpl.Uncolored
	}
	return in, s
}

func TestDecodeRejects(t *testing.T) {
	rt := smallRouted(t, 0)
	honest, err := solution.Encode(rt.routes, rt.in, rt.sol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solution.Decode(honest); err != nil {
		t.Fatal(err)
	}
	edit := func(from, to string) []byte {
		if !strings.Contains(string(honest), from) {
			t.Fatalf("payload holds no %q", from)
		}
		return []byte(strings.Replace(string(honest), from, to, 1))
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"version 3", edit(`"v2`, `"v3`), solution.ErrVersion},
		{"version 1 array", []byte(`[{"Net":0,"Paths":null}]`), solution.ErrVersion},
		{"leading zero", edit(`;`, `;0`), solution.ErrNonCanonical},
		{"version with a leading zero", edit(`"v2`, `"v02`), solution.ErrNonCanonical},
		{"color out of range", []byte(`"v2;0.0.0U|-3"`), solution.ErrColor},
		{"uncolored redundant via", []byte(`"v2;0.0.0U|E0-"`), solution.ErrColor},
		{"redundant color out of range", []byte(`"v2;0.0.0U|E07"`), solution.ErrColor},
		{"too few DVI entries", []byte(`"v2;0.0.0U|"`), nil},
		{"too many DVI entries", []byte(`"v2;0.0.0U|-0-0"`), nil},
		{"candidate up", []byte(`"v2;0.0.0U|U00"`), nil},
		{"trailing bytes", append(append([]byte(nil), honest...), ' '), nil},
		{"unquoted", honest[1 : len(honest)-1], nil},
		{"empty", nil, nil},
		{"dangling comma", []byte(`"v2;0.0.0E,"`), nil},
		{"huge coordinate", []byte(`"v2;1234567890.0.0"`), nil},
	} {
		_, err := solution.Decode(tc.raw)
		switch {
		case err == nil:
			t.Errorf("%s: accepted %q", tc.name, tc.raw)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		case tc.want == nil && (errors.Is(err, solution.ErrVersion) || errors.Is(err, solution.ErrNonCanonical) || errors.Is(err, solution.ErrColor)):
			t.Errorf("%s: %v, want a syntax error", tc.name, err)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		routes []*grid.Route
	}{
		{"net at another index", []*grid.Route{{Net: 1, Paths: [][]geom.Pt3{{geom.XYL(0, 0, 0)}}}}},
		{"empty path", []*grid.Route{{Net: 0, Paths: [][]geom.Pt3{{}}}}},
		{"non-unit step", []*grid.Route{{Net: 0, Paths: [][]geom.Pt3{{geom.XYL(0, 0, 0), geom.XYL(2, 0, 0)}}}}},
		{"negative origin", []*grid.Route{{Net: 0, Paths: [][]geom.Pt3{{geom.XYL(-1, 0, 0)}}}}},
	} {
		if b, err := solution.Encode(tc.routes, nil, nil); err == nil {
			t.Errorf("%s: encoded %s", tc.name, b)
		}
	}
	rt := smallRouted(t, 1)
	if len(rt.in.Vias) == 0 {
		t.Fatal("fixture has no vias")
	}
	bad := *rt.sol
	bad.Colors = slices.Clone(rt.sol.Colors)
	bad.Colors[0] = 3
	if _, err := solution.Encode(rt.routes, rt.in, &bad); !errors.Is(err, solution.ErrColor) {
		t.Errorf("color 3: %v, want ErrColor", err)
	}
	if _, err := solution.Encode(rt.routes[1:], rt.in, rt.sol); err == nil {
		t.Error("encoded a DVI instance of other routes")
	}
}

// FuzzSolution holds the codec to its contract: decoding never panics,
// every accepted payload re-encodes to itself, and encoding then
// decoding gives back the routes and DVI solution of small random
// routed netlists, with routes nil or emptied by a mask.
//
//	go test -run=NONE -fuzz=FuzzSolution -fuzztime=10s ./internal/solution
func FuzzSolution(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		rt := smallRouted(f, seed)
		b, err := solution.Encode(rt.routes, rt.in, rt.sol)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, seed, uint64(0))
		f.Add(b[:len(b)/2], seed, uint64(0b1001))
	}
	f.Add([]byte(`"v2"`), int64(5), uint64(0b11))
	f.Add([]byte(`"v2;-;|"`), int64(6), ^uint64(0))
	f.Add([]byte(`"v2;0.0.0UD|E01W2-"`), int64(7), uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, mask uint64) {
		if p, err := solution.Decode(raw); err == nil {
			again, err := solution.Encode(p.Routes, p.Instance, p.DVI)
			if err != nil || string(again) != string(raw) {
				t.Fatalf("accepted %q, which re-encodes to %q (%v)", raw, again, err)
			}
		}
		rt := smallRouted(t, seed)
		gaps := withGaps(rt.routes, mask)
		roundTrip(t, gaps, nil, nil)
		if mask == 0 {
			sameDVI(t, roundTrip(t, gaps, rt.in, rt.sol), rt.in, rt.sol)
		}
	})
}
