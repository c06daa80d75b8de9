package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
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
		req := ResultRequest{Result: raw, Degraded: len(tc.degraded) > 0}
		if reason, verr := validateUpload(a, &req, true); reason != tc.reason {
			t.Errorf("degraded %v: reason %q (%v), want %q", tc.degraded, reason, verr, tc.reason)
		}
	}
}
