package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/verify"
)

// Under -verify-uploads only a degraded TPL phase may leave forbidden
// via patterns. A timed-out ILP says nothing about the routing, so its
// upload meets the full manufacturability bar like any other. The
// upload here claims a +TPL spec but carries the routing of the same
// circuit without TPL consideration, which has FVPs.
func TestValidateUploadRelaxesTPLOnlyForTPLTimeout(t *testing.T) {
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.HeurDVI, IncludeSolution: true,
	}
	var text string
	var routes []*grid.Route
	for _, c := range append(bench.TinySuite(), bench.TinyMultiPinSuite()...) {
		nl := bench.Generate(c)
		base := spec
		base.ConsiderTPL = false
		_, art, err := bench.Run(nl, base)
		if err != nil {
			t.Fatal(err)
		}
		if verify.Routing(nl, art.Router.Routes(), verify.Options{SADP: spec.Scheme, CheckTPL: true}).Ok() {
			continue
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatal(err)
		}
		text, routes = buf.String(), art.Router.Routes()
		break
	}
	if routes == nil {
		t.Fatal("no tiny circuit routed without TPL consideration leaves an FVP")
	}
	key, err := service.ContentAddress(text, spec)
	if err != nil {
		t.Fatal(err)
	}
	a := &service.Assignment{ID: "j", Key: key, Netlist: text, Spec: spec}
	sol, err := json.Marshal(routes)
	if err != nil {
		t.Fatal(err)
	}
	wl, vias := verify.Metrics(routes)

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
		raw, err := json.Marshal(api.Result{
			Spec: spec, Row: bench.Row{WL: wl, Vias: vias, Routability: 1},
			Degraded: tc.degraded, RemainingFVPs: tc.remaining, Solution: sol,
		})
		if err != nil {
			t.Fatal(err)
		}
		req := signed(raw, len(tc.degraded) > 0)
		if reason, verr := validateUpload(a, &req, true); reason != tc.reason {
			t.Errorf("degraded %v: reason %q (%v), want %q", tc.degraded, reason, verr, tc.reason)
		}
	}
}

// uploadJob routes one small circuit as a coordinator would assign it
// and returns the assignment with the genuine upload's Result bytes.
func uploadJob(tb testing.TB) (*service.Assignment, []byte) {
	tb.Helper()
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.HeurDVI, IncludeSolution: true,
	}
	nl := bench.Generate(bench.Circuit{Name: "fz", Nets: 6, W: 24, H: 24, Seed: 7})
	var buf bytes.Buffer
	if err := nl.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	key, err := service.ContentAddress(buf.String(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	row, art, err := bench.Run(nl, spec)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(api.ResultFrom(spec, row, art))
	if err != nil {
		tb.Fatal(err)
	}
	return &service.Assignment{ID: "j", Key: key, Netlist: buf.String(), Spec: spec}, raw
}

// Every single-bit flip of a genuine upload's result bytes is
// rejected by the checksum tier, including the flips that still decode
// to an acceptable result: a key renamed to one the decoder skips
// ("Layer" → "Mayer"), or a digit of a timing field.
func TestValidateUploadRejectsEveryBitFlip(t *testing.T) {
	a, genuine := uploadJob(t)
	sum := service.Checksum(genuine)
	for i := range genuine {
		for bit := 0; bit < 8; bit++ {
			raw := append([]byte(nil), genuine...)
			raw[i] ^= 1 << bit
			req := ResultRequest{Outcome: service.Outcome{Result: raw}, Checksum: sum}
			if reason, err := validateUpload(a, &req, true); reason != rejectChecksum {
				t.Fatalf("byte %d bit %d: reason %q (%v), want %q", i, bit, reason, err, rejectChecksum)
			}
		}
	}
}

// FuzzResult feeds arbitrary Result bytes for one fixed job through
// validateUpload, with and without the full re-verification: the
// coordinator's trust boundary, where untrusted geometry reaches the
// verifier's grid indexing. It must never panic, and whatever it
// accepts must carry the job's content address and a solution whose
// independent recount matches the claimed row.
//
//	go test -run=NONE -fuzz=FuzzResult -fuzztime=10s ./internal/cluster
func FuzzResult(f *testing.F) {
	a, genuine := uploadJob(f)
	f.Add(genuine, false, false)
	f.Add(genuine, true, false)
	f.Add(genuine, true, true)
	f.Add(genuine[:len(genuine)/2], true, false)
	f.Add([]byte("null"), true, false)
	var res api.Result
	if err := json.Unmarshal(genuine, &res); err != nil {
		f.Fatal(err)
	}
	var routes []*grid.Route
	if err := json.Unmarshal(res.Solution, &routes); err != nil {
		f.Fatal(err)
	}
	// Mutants: every route shifted (recount unchanged, geometry off the
	// grid or off its pins), a claimed row off by one, and the echoed
	// spec of another job.
	mutant := func(edit func(*api.Result, []*grid.Route)) []byte {
		r := res
		rs := make([]*grid.Route, len(routes))
		for i, rt := range routes {
			c := *rt
			c.Paths = nil
			for _, p := range rt.Paths {
				c.Paths = append(c.Paths, append([]geom.Pt3(nil), p...))
			}
			rs[i] = &c
		}
		edit(&r, rs)
		sol, err := json.Marshal(rs)
		if err != nil {
			f.Fatal(err)
		}
		r.Solution = sol
		raw, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	shift := func(dx, dy, dl int) func(*api.Result, []*grid.Route) {
		return func(_ *api.Result, rs []*grid.Route) {
			for _, r := range rs {
				for _, p := range r.Paths {
					for k := range p {
						p[k].X += dx
						p[k].Y += dy
						p[k].Layer += dl
					}
				}
			}
		}
	}
	// The genuine upload passes; geometry shifted off its pins passes
	// the recount and reaches the verifier, which rejects it.
	for _, c := range []struct {
		raw  []byte
		want string
	}{{genuine, ""}, {mutant(shift(1, 0, 0)), rejectVerify}, {mutant(shift(-3, 0, 0)), rejectVerify}} {
		req := signed(c.raw, false)
		if reason, err := validateUpload(a, &req, true); reason != c.want {
			f.Fatalf("validateUpload = %q (%v), want %q", reason, err, c.want)
		}
	}
	for _, m := range [][]byte{
		mutant(shift(1, 0, 0)),
		mutant(shift(-3, 0, 0)),
		mutant(shift(0, 1000, 0)),
		mutant(shift(0, 0, 1)),
		mutant(shift(0, 0, -1)),
		mutant(func(r *api.Result, _ []*grid.Route) { r.Row.WL++ }),
		mutant(func(r *api.Result, _ []*grid.Route) { r.Spec.Scheme = coloring.SID }),
		mutant(func(_ *api.Result, rs []*grid.Route) { rs[0].Paths = rs[0].Paths[:0] }),
	} {
		f.Add(m, true, false)
	}
	f.Fuzz(func(t *testing.T, raw []byte, full, degraded bool) {
		// The checksum is of the bytes fed, so the fuzzer reaches the
		// decode, recount and verify tiers behind it.
		req := signed(raw, degraded)
		reason, err := validateUpload(a, &req, full)
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
		var rs []*grid.Route
		if err := json.Unmarshal(got.Solution, &rs); err != nil {
			t.Fatalf("accepted a solution that does not decode: %v", err)
		}
		if wl, vias := verify.Metrics(rs); wl != got.Row.WL || vias != got.Row.Vias {
			t.Fatalf("accepted row wl=%d vias=%d, recount wl=%d vias=%d", got.Row.WL, got.Row.Vias, wl, vias)
		}
	})
}
