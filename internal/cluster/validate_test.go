package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/solution"
	"repro/internal/tpl"
	"repro/internal/verify"
)

// Under the full re-check only a degraded TPL phase may leave
// forbidden via patterns. A timed-out ILP says nothing about the routing, so its
// upload meets the full manufacturability bar like any other. The
// upload here claims a +TPL spec but carries the routing of the same
// circuit without TPL consideration, which has FVPs.
func TestValidateUploadRelaxesTPLOnlyForTPLTimeout(t *testing.T) {
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.HeurDVI, IncludeSolution: true,
	}
	var text string
	var row bench.Row
	var art *bench.Artifacts
	for _, c := range append(bench.TinySuite(), bench.TinyMultiPinSuite()...) {
		nl := bench.Generate(c)
		base := spec
		base.ConsiderTPL = false
		r, a, err := bench.Run(nl, base)
		if err != nil {
			t.Fatal(err)
		}
		if verify.Routing(nl, a.Router.Routes(), verify.Options{SADP: spec.Scheme, CheckTPL: true}).Ok() {
			continue
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatal(err)
		}
		text, row, art = buf.String(), r, a
		break
	}
	if art == nil {
		t.Fatal("no tiny circuit routed without TPL consideration leaves an FVP")
	}
	key, err := service.ContentAddress(text, spec)
	if err != nil {
		t.Fatal(err)
	}
	a := &service.Assignment{ID: "j", Key: key, Netlist: text, Spec: spec}

	for _, tc := range []struct {
		degraded  []string
		remaining int
		reason    string
	}{
		{nil, 0, rejectVerify},
		{[]string{"dvi-ilp-timeout"}, 0, rejectVerify},
		{[]string{"tpl-rr-timeout"}, 1, ""},
		{[]string{"tpl-rr-timeout", "dvi-ilp-timeout"}, 1, ""},
	} {
		res := api.ResultFrom(spec, row, art)
		res.Degraded, res.RemainingFVPs = tc.degraded, tc.remaining
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		req := signed(raw, len(tc.degraded) > 0)
		if reason, verr := validateUpload(a, &req); reason != tc.reason {
			t.Errorf("degraded %v: reason %q (%v), want %q", tc.degraded, reason, verr, tc.reason)
		}
	}
}

// serveCircuit is the serve benchmark's input shape: 34 nets on
// 56×56, every third one multi-pin.
func serveCircuit(u int, seed int64) bench.Circuit {
	c := bench.Circuit{Name: fmt.Sprintf("s%04d", u), Nets: 34, W: 56, H: 56, Seed: seed}
	if u%3 == 2 {
		c.MaxPins = 6
	}
	return c
}

// serveSpec alternates SIM and SID, as the serve benchmark does.
func serveSpec(u int) bench.RunSpec {
	scheme := coloring.SIM
	if u%2 == 1 {
		scheme = coloring.SID
	}
	return bench.RunSpec{
		Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI,
		Verify: true, IncludeSolution: true,
	}
}

// upload runs one job as a worker would, through arena (may be nil),
// and returns its assignment and the genuine upload's Result bytes.
func upload(tb testing.TB, nl *netlist.Netlist, spec bench.RunSpec, arena *router.Arena) (*service.Assignment, []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if err := nl.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	key, err := service.ContentAddress(buf.String(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := service.DefaultRun(context.Background(), nl, spec, arena)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	return &service.Assignment{ID: "j", Key: key, Netlist: buf.String(), Spec: spec}, raw
}

// uploadJob routes one small circuit as a coordinator would assign it
// and returns the assignment with the genuine upload's Result bytes.
func uploadJob(tb testing.TB) (*service.Assignment, []byte) {
	tb.Helper()
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.HeurDVI, IncludeSolution: true,
	}
	return upload(tb, bench.Generate(bench.Circuit{Name: "fz", Nets: 6, W: 24, H: 24, Seed: 7}), spec, nil)
}

// Every honest upload passes the full re-check: a thousand serve-shaped
// jobs through one arena, as a worker runs them, plus the two serve
// netlists whose TPL phase runs longest.
func TestHonestUploadsValidate(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 60
	}
	arena := router.NewArena()
	check := func(name string, nl *netlist.Netlist, spec bench.RunSpec) {
		t.Helper()
		a, raw := upload(t, nl, spec, arena)
		req := signed(raw, false)
		if reason, err := validateUpload(a, &req); reason != "" {
			t.Fatalf("%s: honest upload rejected (%s): %v", name, reason, err)
		}
	}
	for u := 0; u < jobs; u++ {
		c := serveCircuit(u, 7919*int64(u)+1)
		check(c.Name, bench.Generate(c), serveSpec(u))
	}
	for _, tc := range []struct {
		file string
		u    int
	}{{"c0-0080.net", 80}, {"c1-0245.net", 245}} {
		f, err := os.Open(filepath.Join("..", "router", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		nl, err := netlist.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		check(tc.file, nl, serveSpec(tc.u))
	}
}

// Every single-bit flip of a genuine upload's result bytes is
// rejected by the checksum tier, including the flips that still decode
// to an acceptable result: a digit of a timing field.
func TestValidateUploadRejectsEveryBitFlip(t *testing.T) {
	a, genuine := uploadJob(t)
	sum := service.Checksum(genuine)
	for i := range genuine {
		for bit := 0; bit < 8; bit++ {
			raw := append([]byte(nil), genuine...)
			raw[i] ^= 1 << bit
			req := ResultRequest{Outcome: service.Outcome{Result: raw}, Checksum: sum}
			if reason, err := validateUpload(a, &req); reason != rejectChecksum {
				t.Fatalf("byte %d bit %d: reason %q (%v), want %q", i, bit, reason, err, rejectChecksum)
			}
		}
	}
}

// decodeUpload splits genuine Result bytes into the result and its
// decoded solution payload.
func decodeUpload(tb testing.TB, raw []byte) (api.Result, *solution.Payload) {
	tb.Helper()
	var res api.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		tb.Fatal(err)
	}
	p, err := solution.Decode(res.Solution)
	if err != nil {
		tb.Fatal(err)
	}
	return res, p
}

// reencode renders res with the payload p.
func reencode(tb testing.TB, res api.Result, p *solution.Payload) []byte {
	tb.Helper()
	sol, err := solution.Encode(p.Routes, p.Instance, p.DVI)
	if err != nil {
		tb.Fatal(err)
	}
	res.Solution = sol
	raw, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// editSolution replaces the first occurrence of from in res's payload
// bytes with to, leaving everything else as it is.
func editSolution(tb testing.TB, res api.Result, from, to string) []byte {
	tb.Helper()
	s := string(res.Solution)
	if !strings.Contains(s, from) {
		tb.Fatalf("payload holds no %q", from)
	}
	res.Solution = json.RawMessage(strings.Replace(s, from, to, 1))
	raw, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// occupiedCandidate finds a via of p and a direction whose candidate
// site holds another via on the same via layer, or another net's
// metal on one of the via's two layers.
func occupiedCandidate(p *solution.Payload) (k int, c geom.Pt, ok bool) {
	vias := map[geom.Pt3]bool{}
	metal := map[geom.Pt3]int32{}
	for _, v := range p.Instance.Vias {
		vias[v.Base] = true
	}
	for _, r := range p.Routes {
		if r == nil {
			continue
		}
		for _, q := range r.PointList() {
			metal[q] = r.Net
		}
	}
	for k, v := range p.Instance.Vias {
		for _, off := range dvi.DVICOffsets {
			c := v.Pos().Add(off.X, off.Y)
			if vias[geom.XYL(c.X, c.Y, v.Layer())] {
				return k, c, true
			}
			for _, l := range []int{v.Layer(), v.Layer() + 1} {
				if n, on := metal[geom.XYL(c.X, c.Y, l)]; on && n != v.Net {
					return k, c, true
				}
			}
		}
	}
	return 0, geom.Pt{}, false
}

// TestValidateUploadMutations: each forged edit of an honest upload is
// rejected with its own reason; an honest payload edited to leave one
// via uncolored, its row's UV raised to match, is an honest result
// and is accepted.
func TestValidateUploadMutations(t *testing.T) {
	c := serveCircuit(0, 11)
	a, genuine := upload(t, bench.Generate(c), serveSpec(0), nil)
	res, p := decodeUpload(t, genuine)
	if res.InsertedVias == 0 || res.Row.DV == 0 {
		t.Fatalf("fixture inserts %d and leaves %d dead vias; want both", res.InsertedVias, res.Row.DV)
	}
	row := func(edit func(*api.Result)) []byte {
		r := res
		edit(&r)
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	k, cand, ok := occupiedCandidate(p)
	if !ok {
		t.Fatal("no via of the fixture has an occupied candidate site")
	}
	occupied := res
	_, q := decodeUpload(t, genuine)
	if q.DVI.Inserted[k] < 0 {
		occupied.Row.DV--
		occupied.InsertedVias++
	}
	q.Instance.Feas[k] = []geom.Pt{cand}
	q.DVI.Inserted[k], q.DVI.RedColors[k] = 0, 0
	occupiedRaw := reencode(t, occupied, q)

	uncolored := res
	_, u := decodeUpload(t, genuine)
	uncolorOne(t, &uncolored, u)

	// The DVI section follows the '|'; its second byte is the first
	// via's color.
	bar := bytes.IndexByte(res.Solution, '|')

	for _, tc := range []struct {
		name   string
		raw    []byte
		reason string
	}{
		{"honest", genuine, ""},
		{"forged DV", row(func(r *api.Result) { r.Row.DV-- }), rejectDVIRecount},
		{"forged UV", row(func(r *api.Result) { r.Row.UV++ }), rejectDVIRecount},
		{"forged InsertedVias", row(func(r *api.Result) { r.InsertedVias++ }), rejectDVIRecount},
		{"DVI solution withheld", editSolution(t, res, string(res.Solution[bar:len(res.Solution)-1]), ""), rejectDVIRecount},
		{"candidate on an occupied site", occupiedRaw, rejectVerify},
		{"color out of range", editSolution(t, res, string(res.Solution[bar:bar+3]), string(res.Solution[bar:bar+2])+"7"), rejectSolutionColor},
		{"unknown version", editSolution(t, res, `"v2`, `"v3`), rejectSolutionVersion},
		{"non-canonical encoding", editSolution(t, res, `"v2;`, `"v2;0`), rejectSolutionNonCanonical},
		{"one via left uncolored", reencode(t, uncolored, u), ""},
	} {
		req := signed(tc.raw, false)
		if reason, err := validateUpload(a, &req); reason != tc.reason {
			t.Errorf("%s: reason %q (%v), want %q", tc.name, reason, err, tc.reason)
		}
	}
	// The occupied site passes the recount; the full re-check finds
	// it as a DVI violation.
	req := signed(occupiedRaw, false)
	if _, err := validateUpload(a, &req); err == nil ||
		!strings.Contains(err.Error(), verify.DVICollision.String()) && !strings.Contains(err.Error(), verify.DVIInfeasible.String()) {
		t.Errorf("occupied candidate: %v, want a %s or %s violation", err, verify.DVICollision, verify.DVIInfeasible)
	}
}

// uncolorOne leaves the first colored via of p uncolored and raises
// res's UV to match.
func uncolorOne(tb testing.TB, res *api.Result, p *solution.Payload) {
	tb.Helper()
	for k, c := range p.DVI.Colors {
		if c != tpl.Uncolored {
			p.DVI.Colors[k] = tpl.Uncolored
			res.Row.UV++
			return
		}
	}
	tb.Fatal("every via is uncolored already")
}

// shifted returns p with every route point, via and candidate moved by
// (dx, dy, dl).
func shifted(p *solution.Payload, dx, dy, dl int) *solution.Payload {
	move := func(q geom.Pt3) geom.Pt3 { return geom.XYL(q.X+dx, q.Y+dy, q.Layer+dl) }
	out := &solution.Payload{Routes: make([]*grid.Route, len(p.Routes))}
	for i, r := range p.Routes {
		if r == nil {
			continue
		}
		c := &grid.Route{Net: r.Net}
		for _, path := range r.Paths {
			np := make([]geom.Pt3, len(path))
			for k, q := range path {
				np[k] = move(q)
			}
			c.Paths = append(c.Paths, np)
		}
		out.Routes[i] = c
	}
	if p.Instance != nil {
		in := &dvi.Instance{Routes: out.Routes, Feas: make([][]geom.Pt, len(p.Instance.Feas))}
		for k, v := range p.Instance.Vias {
			in.Vias = append(in.Vias, dvi.Via{Net: v.Net, Base: move(v.Base)})
			for _, f := range p.Instance.Feas[k] {
				in.Feas[k] = append(in.Feas[k], f.Add(dx, dy))
			}
		}
		sol := *p.DVI
		sol.Inserted = slices.Clone(sol.Inserted)
		sol.Colors = slices.Clone(sol.Colors)
		sol.RedColors = slices.Clone(sol.RedColors)
		out.Instance, out.DVI = in, &sol
	}
	return out
}

// FuzzResult feeds arbitrary Result bytes for one fixed job through
// validateUpload: the coordinator's trust boundary, where untrusted geometry reaches the
// verifier's grid indexing. It must never panic, and whatever it
// accepts must carry the job's content address and a solution payload
// whose independent recount matches the claimed row.
//
//	go test -run=NONE -fuzz=FuzzResult -fuzztime=10s -fuzzminimizetime=1s ./internal/cluster
func FuzzResult(f *testing.F) {
	a, genuine := uploadJob(f)
	f.Add(genuine, false)
	f.Add(genuine, true)
	f.Add(genuine[:len(genuine)/2], false)
	f.Add([]byte("null"), false)
	res, p := decodeUpload(f, genuine)
	mutant := func(edit func(*api.Result) *solution.Payload) []byte {
		r := res
		q := edit(&r)
		if q == nil {
			_, q = decodeUpload(f, genuine)
		}
		return reencode(f, r, q)
	}
	// A path that leaves the grid below zero on every axis, its
	// recount claimed so the upload reaches the verifier.
	offGrid := func(r *api.Result) *solution.Payload {
		q := shifted(p, 0, 0, 0)
		last := q.Routes[len(q.Routes)-1]
		last.Paths = append(last.Paths, []geom.Pt3{geom.XYL(0, 0, 0), geom.XYL(-1, 0, 0), geom.XYL(-1, -1, 0), geom.XYL(-1, -1, -1)})
		in, sol := q.Instance, q.DVI
		in.Vias = append(in.Vias, dvi.Via{Net: last.Net, Base: geom.XYL(-1, -1, -1)})
		in.Feas = append(in.Feas, nil)
		sol.Inserted = append(sol.Inserted, -1)
		sol.Colors = append(sol.Colors, 0)
		sol.RedColors = append(sol.RedColors, tpl.Uncolored)
		r.Row.WL, r.Row.Vias = verify.Metrics(q.Routes)
		r.Row.DV++
		return q
	}
	// A payload that routes nothing recounts to its own zero row.
	empty := res
	empty.Row.WL, empty.Row.Vias, empty.Row.DV, empty.Row.UV, empty.InsertedVias = 0, 0, 0, 0, 0
	empty.Solution = json.RawMessage(`"v2|"`)
	emptyRaw, err := json.Marshal(empty)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(emptyRaw, false)
	// The genuine upload passes; geometry shifted off its pins, and no
	// geometry at all, pass the recount and reach the verifier, which
	// rejects them.
	for _, c := range []struct {
		raw  []byte
		want string
	}{
		{genuine, ""},
		{mutant(func(*api.Result) *solution.Payload { return shifted(p, 1, 0, 0) }), rejectVerify},
		{mutant(offGrid), rejectVerify},
		{emptyRaw, rejectVerify},
	} {
		req := signed(c.raw, false)
		if reason, err := validateUpload(a, &req); reason != c.want {
			f.Fatalf("validateUpload = %q (%v), want %q", reason, err, c.want)
		}
	}
	uncolored := func(r *api.Result) *solution.Payload {
		_, q := decodeUpload(f, genuine)
		uncolorOne(f, r, q)
		return q
	}
	for _, m := range [][]byte{
		mutant(func(*api.Result) *solution.Payload { return shifted(p, 1, 0, 0) }),
		mutant(offGrid),
		mutant(func(*api.Result) *solution.Payload { return shifted(p, 0, 1000, 0) }),
		mutant(func(*api.Result) *solution.Payload { return shifted(p, 0, 0, 1) }),
		mutant(func(r *api.Result) *solution.Payload { r.Row.WL++; return nil }),
		mutant(func(r *api.Result) *solution.Payload { r.Row.DV++; return nil }),
		mutant(func(r *api.Result) *solution.Payload { r.Spec.Scheme = coloring.SID; return nil }),
		mutant(uncolored),
	} {
		f.Add(m, false)
	}
	f.Fuzz(func(t *testing.T, raw []byte, degraded bool) {
		// The checksum is of the bytes fed, so the fuzzer reaches the
		// decode, recount and verify tiers behind it.
		req := signed(raw, degraded)
		reason, err := validateUpload(a, &req)
		if reason != "" {
			if err == nil {
				t.Fatalf("rejected (%s) without an error", reason)
			}
			return
		}
		var got api.Result
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("accepted a payload that does not decode: %v", err)
		}
		if key, err := service.ContentAddress(a.Netlist, got.Spec); err != nil || key != a.Key {
			t.Fatalf("accepted a spec echo that re-derives %q (%v), job is %q", key, err, a.Key)
		}
		if !got.Spec.IncludeSolution {
			t.Fatal("accepted an echo without the solution the job's spec asks for")
		}
		q, err := solution.Decode(got.Solution)
		if err != nil {
			t.Fatalf("accepted a solution that does not decode: %v", err)
		}
		if wl, vias := verify.Metrics(q.Routes); wl != got.Row.WL || vias != got.Row.Vias {
			t.Fatalf("accepted row wl=%d vias=%d, recount wl=%d vias=%d", got.Row.WL, got.Row.Vias, wl, vias)
		}
		if q.DVI == nil || q.DVI.DeadVias != got.Row.DV || q.DVI.Uncolorable != got.Row.UV || q.DVI.InsertedCount != got.InsertedVias {
			t.Fatalf("accepted row dv=%d uv=%d inserted=%d against the payload's DVI solution %+v",
				got.Row.DV, got.Row.UV, got.InsertedVias, q.DVI)
		}
	})
}
