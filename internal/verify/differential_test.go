package verify_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/verify"
)

// The flat checker must return exactly the Report of the map-based
// reference it replaced (verify.RefRouting/RefSolution, test-only):
// the same violations, in the same order, with the same text.

// routed is one circuit run through the flow.
type routed struct {
	name   string
	mode   coloring.SADPType
	nl     *netlist.Netlist
	routes []*grid.Route
	in     *dvi.Instance
	sol    *dvi.Solution
}

// routeAll runs every circuit in both SADP modes with DVI and, when
// tpl is set, TPL consideration. Routing without TPL leaves forbidden
// via patterns for the via-layer checks to find.
func routeAll(t *testing.T, circuits []bench.Circuit, tpl bool) []routed {
	t.Helper()
	var out []routed
	for _, ckt := range circuits {
		nl := bench.Generate(ckt)
		for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			spec := bench.RunSpec{Scheme: mode, ConsiderDVI: true, ConsiderTPL: tpl, Method: bench.HeurDVI}
			_, art, err := bench.Run(nl, spec)
			if err != nil {
				t.Fatalf("%s/%v: %v", ckt.Name, mode, err)
			}
			out = append(out, routed{ckt.Name, mode, nl, art.Router.Routes(), art.Instance, art.Solution})
		}
	}
	return out
}

var (
	suitesOnce sync.Once
	suitesRuns []routed
)

// suites routes TinySuite, TinyMultiPinSuite and ScaledSuite(4) with
// TPL consideration, plus TinySuite without it, once per test binary.
func suites(t *testing.T) []routed {
	suitesOnce.Do(func() {
		suitesRuns = append(suitesRuns, routeAll(t, bench.TinySuite(), true)...)
		suitesRuns = append(suitesRuns, routeAll(t, bench.TinyMultiPinSuite(), true)...)
		suitesRuns = append(suitesRuns, routeAll(t, bench.ScaledSuite(4), true)...)
		for _, r := range routeAll(t, bench.TinySuite(), false) {
			r.name += "-notpl"
			suitesRuns = append(suitesRuns, r)
		}
	})
	if len(suitesRuns) == 0 {
		t.Fatal("suite routing failed in an earlier test")
	}
	return suitesRuns
}

func other(mode coloring.SADPType) coloring.SADPType {
	if mode == coloring.SIM {
		return coloring.SID
	}
	return coloring.SIM
}

// sameReport fails t unless both checkers, and both recounts, agree on
// the input.
func sameReport(t *testing.T, what string, nl *netlist.Netlist, routes []*grid.Route, in *dvi.Instance, sol *dvi.Solution, opt verify.Options) *verify.Report {
	t.Helper()
	wl, vias := verify.Metrics(routes)
	if rwl, rvias := verify.RefMetrics(routes); wl != rwl || vias != rvias {
		t.Errorf("%s: Metrics = %d/%d, reference %d/%d", what, wl, vias, rwl, rvias)
	}
	want := verify.RefSolution(nl, routes, in, sol, opt)
	got := verify.Solution(nl, routes, in, sol, opt)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: report differs from the reference:\n%s", what, reportDiff(got, want))
	}
	if in == nil {
		if r := verify.Routing(nl, routes, opt); !reflect.DeepEqual(r, got) {
			t.Errorf("%s: Routing and Solution without DVI disagree", what)
		}
	}
	return got
}

func reportDiff(got, want *verify.Report) string {
	for i := 0; i < len(got.Violations) && i < len(want.Violations); i++ {
		if got.Violations[i] != want.Violations[i] {
			return fmt.Sprintf("violation %d:\n got  %v\n want %v", i, got.Violations[i], want.Violations[i])
		}
	}
	return fmt.Sprintf("got %d violations (truncated %v), want %d (truncated %v)",
		len(got.Violations), got.Truncated, len(want.Violations), want.Truncated)
}

func TestCheckerMatchesReference(t *testing.T) {
	t.Run("mutations", checkMutationsMatchReference)
	for _, r := range suites(t) {
		r := r
		t.Run(fmt.Sprintf("%s/%v", r.name, r.mode), func(t *testing.T) {
			t.Parallel()
			for _, tpl := range []bool{false, true} {
				opt := verify.Options{SADP: r.mode, CheckTPL: tpl}
				sameReport(t, fmt.Sprintf("routing tpl=%v", tpl), r.nl, r.routes, nil, nil, opt)
				sameReport(t, fmt.Sprintf("solution tpl=%v", tpl), r.nl, r.routes, r.in, r.sol, opt)
			}
			// Under the other SADP mode most turns and insertions are
			// illegal: thousands of violations, all of them compared.
			opt := verify.Options{SADP: other(r.mode), CheckTPL: true, MaxViolations: math.MaxInt}
			if rep := sameReport(t, "other mode", r.nl, r.routes, r.in, r.sol, opt); rep.Ok() {
				t.Errorf("other mode: no violations")
			}
		})
	}
}

// checkMutationsMatchReference corrupts the tiny and multi-pin
// fixtures in every way the mutation tests do, at many of the sites
// they pick from rather than only the first, and compares the two
// checkers on each corruption.
func checkMutationsMatchReference(t *testing.T) {
	type mutant struct {
		kind   string
		routes []*grid.Route
		in     *dvi.Instance
		sol    *dvi.Solution
	}
	for _, fx := range []struct {
		name string
		run  func(*testing.T) (*netlist.Netlist, []*grid.Route, *dvi.Instance, *dvi.Solution)
	}{
		{"tiny", fixture},
		{"multipin", func(t *testing.T) (*netlist.Netlist, []*grid.Route, *dvi.Instance, *dvi.Solution) {
			nl := bench.Generate(bench.TinyMultiPinSuite()[0])
			spec := bench.RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
			_, art, err := bench.Run(nl, spec)
			if err != nil {
				t.Fatal(err)
			}
			return nl, art.Router.Routes(), art.Instance, art.Solution
		}},
	} {
		nl, routes, in, sol := fx.run(t)
		var ms []mutant
		add := func(kind string, rs []*grid.Route, in *dvi.Instance, sol *dvi.Solution) {
			ms = append(ms, mutant{kind, rs, in, sol})
		}
		own := map[geom.Pt3]int32{}
		for _, r := range routes {
			for _, p := range r.PointList() {
				own[p] = r.Net
			}
		}
		pinNet := map[geom.Pt]int32{}
		for _, n := range nl.Nets {
			for _, p := range n.Pins {
				pinNet[p] = int32(n.ID)
			}
		}
		for i, r := range routes {
			if r == nil {
				continue
			}
			mut := copyRoutes(routes)
			mut[i] = nil
			add("unrouted", mut, in, sol)
			for k := range r.Paths {
				mut := copyRoutes(routes)
				path := mut[i].Paths[k]
				h := len(path) / 2
				mut[i].Paths = append(append(mut[i].Paths[:k:k], path[:h], path[h:]), mut[i].Paths[k+1:]...)
				add("split", mut, in, sol)
				mut = copyRoutes(routes)
				mut[i].Paths = append(mut[i].Paths[:k:k], mut[i].Paths[k+1:]...)
				add("drop-path", mut, in, sol)
			}
			mut = copyRoutes(routes)
			mut[i].Paths = append(mut[i].Paths, mut[i].Paths[0])
			add("dup-path", mut, in, sol)
			p0 := r.Paths[0][0]
			mut = copyRoutes(routes)
			mut[i].Paths = append(mut[i].Paths,
				[]geom.Pt3{p0, geom.XYL(p0.X, p0.Y, p0.Layer+1), p0},
				[]geom.Pt3{p0, geom.XYL(p0.X+2, p0.Y, p0.Layer)},
				[]geom.Pt3{p0, p0},
				[]geom.Pt3{geom.XYL(-1, 0, 0), geom.XYL(0, 0, 0), geom.XYL(0, 0, 9)})
			add("bad-step-off-grid", mut, in, sol)
			for _, p := range r.PointList() {
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					q := geom.XYL(p.X+d[0], p.Y+d[1], p.Layer)
					if other, ok := own[q]; ok && other != r.Net {
						mut := copyRoutes(routes)
						mut[r.Net].Paths = append(mut[r.Net].Paths, []geom.Pt3{p, q})
						add("short", mut, in, sol)
					}
					if q.Layer != 0 {
						continue
					}
					if owner, ok := pinNet[q.Pt2()]; ok && owner != r.Net {
						mut := copyRoutes(routes)
						mut[r.Net].Paths = append(mut[r.Net].Paths, []geom.Pt3{p, q})
						add("pin-obstruction", mut, in, sol)
					}
				}
			}
		}
		for i := range in.Vias {
			for j := range in.Vias {
				vi, vj := in.Vias[i], in.Vias[j]
				if i == j || sol.Colors[i] < 0 || sol.Colors[j] < 0 || vi.Layer() != vj.Layer() ||
					vi.Pos().SqDist(vj.Pos()) > 5 {
					continue
				}
				mut := copySolution(sol)
				mut.Colors[i] = mut.Colors[j]
				fixStats(mut)
				add("recolor", routes, in, mut)
			}
			for ci, c := range in.Feas[i] {
				for j := range in.Vias {
					for cj, c2 := range in.Feas[j] {
						if j == i || c2 != c || in.Vias[i].Layer() != in.Vias[j].Layer() {
							continue
						}
						mut := copySolution(sol)
						mut.Inserted[i], mut.Inserted[j] = ci, cj
						mut.RedColors[i], mut.RedColors[j] = 0, 1
						fixStats(mut)
						add("double-insert", routes, in, mut)
					}
				}
				mut := copySolution(sol)
				mut.Inserted[i] = ci
				mut.RedColors[i] = sol.Colors[i]
				fixStats(mut)
				add("insert-same-color", routes, in, mut)
			}
		}
		for _, f := range []func(*dvi.Solution){
			func(s *dvi.Solution) { s.InsertedCount++ },
			func(s *dvi.Solution) { s.Colors[0] = 5; fixStats(s) },
			func(s *dvi.Solution) { s.Colors[0] = -3; fixStats(s) },
			func(s *dvi.Solution) { s.Inserted[0] = 7; fixStats(s) },
			func(s *dvi.Solution) { s.Inserted[0] = -2; fixStats(s) },
			func(s *dvi.Solution) { s.RedColors[0] = 9 },
			func(s *dvi.Solution) { s.Inserted = s.Inserted[1:] },
		} {
			mut := copySolution(sol)
			f(mut)
			add("scalars", routes, in, mut)
		}
		v0 := in.Vias[0]
		for _, mv := range []struct {
			base geom.Pt3
			cand geom.Pt
		}{
			{v0.Base, geom.XY(v0.Base.X+5, v0.Base.Y)},                                         // not adjacent
			{geom.XYL(0, 3, v0.Base.Layer), geom.XY(-1, 3)},                                    // off the west edge
			{geom.XYL(nl.W-1, 3, v0.Base.Layer), geom.XY(nl.W, 3)},                             // off the east edge
			{geom.XYL(2, 0, v0.Base.Layer), geom.XY(2, -1)},                                    // off the south edge
			{geom.XYL(2, 0, -1), geom.XY(2, 1)},                                                // below the via layers
			{geom.XYL(2, 0, nl.NumLayers-1), geom.XY(3, 0)},                                    // top metal is no via layer
			{geom.XYL(v0.Base.X, v0.Base.Y, v0.Base.Layer+1), geom.XY(v0.Base.X, v0.Base.Y+1)}, // shifted layer
		} {
			inMut := *in
			inMut.Vias = append([]dvi.Via(nil), in.Vias...)
			inMut.Feas = append([][]geom.Pt(nil), in.Feas...)
			inMut.Vias[0].Base = mv.base
			inMut.Feas[0] = append(append([]geom.Pt(nil), in.Feas[0]...), mv.cand)
			mut := copySolution(sol)
			mut.Inserted[0] = len(inMut.Feas[0]) - 1
			mut.RedColors[0] = 0
			fixStats(mut)
			add("forged-candidate", routes, &inMut, mut)
		}
		// Off-grid vias within pitch of each other and of the grid,
		// all one color.
		inMut := *in
		inMut.Vias = append([]dvi.Via(nil), in.Vias...)
		inMut.Vias[0].Base = geom.XYL(-1, 2, 0)
		inMut.Vias[1].Base = geom.XYL(-2, 3, 0)
		inMut.Vias[2].Base = geom.XYL(0, 2, 0)
		inMut.Vias[3].Base = geom.XYL(-2, 3, 0)
		mut := copySolution(sol)
		for k := 0; k < 4; k++ {
			mut.Colors[k] = 1
		}
		fixStats(mut)
		add("off-grid-colors", routes, &inMut, mut)
		for _, f := range []func(*dvi.Instance){
			func(in *dvi.Instance) { in.Vias[0] = in.Vias[1] },
			func(in *dvi.Instance) { in.Vias[0].Net = -4 },
			func(in *dvi.Instance) { in.Vias[0].Net = int32(len(nl.Nets)) },
			func(in *dvi.Instance) { in.Vias[0].Base.X++ },
			func(in *dvi.Instance) { in.Vias[0].Base.Layer = nl.NumLayers - 1 },
			func(in *dvi.Instance) { in.Vias[0].Base = geom.XYL(-3, 2, -1); in.Vias[1].Base = geom.XYL(-3, 2, -1) },
			func(in *dvi.Instance) { in.Vias[2] = in.Vias[0]; in.Vias[3] = in.Vias[0] },
			func(in *dvi.Instance) { in.Feas = in.Feas[1:] },
		} {
			inMut := *in
			inMut.Vias = append([]dvi.Via(nil), in.Vias...)
			f(&inMut)
			add("via-list", routes, &inMut, sol)
		}
		inMut = *in
		inMut.Vias, inMut.Feas = in.Vias[1:], in.Feas[1:]
		mut = copySolution(sol)
		mut.Inserted, mut.Colors, mut.RedColors = mut.Inserted[1:], mut.Colors[1:], mut.RedColors[1:]
		fixStats(mut)
		add("drop-via", routes, &inMut, mut)

		// At most 16 mutants per kind of corruption, spread over its
		// sites, keep the test fast under -race.
		byKind := map[string][]mutant{}
		var kinds []string
		for _, m := range ms {
			if byKind[m.kind] == nil {
				kinds = append(kinds, m.kind)
			}
			byKind[m.kind] = append(byKind[m.kind], m)
		}
		for _, kind := range kinds {
			all := byKind[kind]
			stride := (len(all) + 15) / 16
			for k := 0; k < len(all); k += stride {
				m := all[k]
				for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
					for _, limit := range []int{3, math.MaxInt} {
						opt := verify.Options{SADP: mode, CheckTPL: true, MaxViolations: limit}
						sameReport(t, fmt.Sprintf("%s/%s/%d %v max=%d", fx.name, kind, k, mode, limit), nl, m.routes, m.in, m.sol, opt)
					}
				}
			}
		}
	}
	// The hand-built geometries of the FVP and turn mutation tests.
	l0 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 0) }
	l1 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 1) }
	for _, hb := range []struct {
		pins  []geom.Pt
		paths [][]geom.Pt3
	}{
		{[]geom.Pt{geom.XY(0, 0), geom.XY(3, 0)}, [][]geom.Pt3{
			{l0(0, 0), l0(1, 0), l0(2, 0), l0(3, 0)},
			{l0(1, 0), l0(1, 1)}, {l0(2, 0), l0(2, 1)},
			{l0(1, 0), l1(1, 0)}, {l0(2, 0), l1(2, 0)}, {l0(1, 1), l1(1, 1)}, {l0(2, 1), l1(2, 1)},
		}},
		{[]geom.Pt{geom.XY(1, 2), geom.XY(2, 3)}, [][]geom.Pt3{{l0(1, 2), l0(2, 2), l0(2, 3)}}},
		{[]geom.Pt{geom.XY(3, 2), geom.XY(2, 3)}, [][]geom.Pt3{{l0(3, 2), l0(2, 2), l0(2, 3)}}},
	} {
		nl, routes := handBuilt(hb.pins, hb.paths)
		for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			for _, tpl := range []bool{false, true} {
				sameReport(t, fmt.Sprintf("hand-built %v tpl=%v", mode, tpl), nl, routes, nil, nil,
					verify.Options{SADP: mode, CheckTPL: tpl})
			}
		}
	}
}

// TestConcurrentCheckersShareNoState runs several checkers at once on
// a routing whose via windows hold four vias or more: the window
// colorability table they all read must not be written after package
// initialization (run under -race).
func TestConcurrentCheckersShareNoState(t *testing.T) {
	l0 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 0) }
	l1 := func(x, y int) geom.Pt3 { return geom.XYL(x, y, 1) }
	// A 3×2 block of vias: every window over it holds four to six.
	var paths [][]geom.Pt3
	paths = append(paths, []geom.Pt3{l0(0, 0), l0(1, 0), l0(2, 0), l0(3, 0), l0(4, 0)})
	for x := 1; x <= 3; x++ {
		paths = append(paths, []geom.Pt3{l0(x, 0), l0(x, 1)}, []geom.Pt3{l0(x, 0), l1(x, 0)}, []geom.Pt3{l0(x, 1), l1(x, 1)})
	}
	nl, routes := handBuilt([]geom.Pt{geom.XY(0, 0), geom.XY(4, 0)}, paths)
	opt := verify.Options{SADP: coloring.SIM, CheckTPL: true}
	// No checker runs before the concurrent ones: the first reads of
	// the table must race each other if anything writes it lazily.
	start := make(chan struct{})
	var wg sync.WaitGroup
	reports := make([]*verify.Report, 8)
	for g := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			reports[g] = verify.Routing(nl, routes, opt)
		}()
	}
	close(start)
	wg.Wait()
	want := reports[0]
	if !want.Has(verify.FVP) {
		t.Fatalf("fixture has no FVP: %v", want.Err())
	}
	for g, rep := range reports {
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("checker %d: %s", g, reportDiff(rep, want))
		}
	}
}

// TestSolutionAllocsFlat pins the checker's allocations to the grid,
// not the solution: a clean 1 453-net solution may cost at most twice
// the allocations of a 26-net one.
func TestSolutionAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("routes ScaledSuite(2) div-s")
	}
	allocs := func(ckt bench.Circuit) float64 {
		nl := bench.Generate(ckt)
		spec := bench.RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
		_, art, err := bench.Run(nl, spec)
		if err != nil {
			t.Fatal(err)
		}
		routes := art.Router.Routes()
		opt := verify.Options{SADP: coloring.SIM, CheckTPL: true}
		if err := verify.Solution(nl, routes, art.Instance, art.Solution, opt).Err(); err != nil {
			t.Fatalf("%s: %v", ckt.Name, err)
		}
		return testing.AllocsPerRun(3, func() {
			verify.Solution(nl, routes, art.Instance, art.Solution, opt)
		})
	}
	small := allocs(bench.TinySuite()[0])
	var div bench.Circuit
	for _, c := range bench.ScaledSuite(2) {
		if c.Name == "div-s" {
			div = c
		}
	}
	large := allocs(div)
	t.Logf("allocs per run: %s %.0f, %s %.0f", bench.TinySuite()[0].Name, small, div.Name, large)
	if large > 2*small {
		t.Errorf("%s: %.0f allocations per run, more than twice the %.0f of %s", div.Name, large, small, bench.TinySuite()[0].Name)
	}
}
