package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service/api"
)

// FuzzSubmit throws arbitrary bytes at the job submission endpoint.
// The body crosses the trust boundary twice — JSON decode of the spec
// and the netlist parser — so the invariant is: the handler never
// panics and never answers 5xx; malformed input is always a 4xx with
// a JSON error payload.
func FuzzSubmit(f *testing.F) {
	// One shared server with a stub flow: the fuzzer exercises request
	// handling, not routing.
	s, err := New(Config{
		Workers:   2,
		QueueSize: 16,
		Run: func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, _ *router.Arena) (api.Result, error) {
			return api.Result{Row: bench.Row{CKT: nl.Name, Routability: 1}}, nil
		},
	})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	f.Add(`{"netlist": "netlist t 8 8 2\nnet a 1 1 5 1\n", "spec": {"method": "heur"}}`)
	f.Add(`{"netlist": "netlist t 8 8 2\nnet a 1 1 5 1\n", "spec": {"scheme": "sid", "consider_dvi": true, "consider_tpl": true, "method": "ilp", "ilp_node_limit": 50000, "verify": true}}`)
	f.Add(`{"netlist": "", "spec": {}}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`not json at all`)
	f.Add(`{"netlist": "netlist t 8 8 2\n", "spec": {"method": "bogus"}}`)
	f.Add(`{"netlist": "netlist t 8 8 2\n", "spec": {"method": 255}}`)
	f.Add(`{"netlist": "netlist t 8 8 2\n", "spec": {"unknown_field": 1}}`)
	f.Add(`{"netlist": "netlist t -1 -1 0\nnet a 1 1 5 1\n", "spec": {"method": "none"}}`)
	f.Add(`{"netlist": "netlist t 99999999 99999999 9\nnet a 1 1 5 1\n", "spec": {"method": "none"}}`)
	f.Add(`{"netlist": "netlist t 8 8 2\nnet a 1 1 5 1\n", "spec": {"ilp_time_limit": -7}}`)
	f.Add(`[1, 2, 3]`)
	f.Add(`{"netlist": 42, "spec": "heur"}`)
	f.Add(`{"netlist": "netlist t 8 8 2\nnet a 1 1 5 1\n", "spec": {"method": "heur", "params": {"alpha": -40, "via_cost": -50, "non_pref_mul": -3}}}`)
	f.Add(`{"netlist": "netlist t 8 8 2\nnet a 1 1 5 1\n", "spec": {"method": "heur", "queue": "heap", "workers": 4}}`)

	f.Fuzz(func(t *testing.T, body string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST failed outright: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("submit answered %d for body %q", resp.StatusCode, body)
		}
	})
}
