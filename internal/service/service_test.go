package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service/api"
)

// mustNew builds a Server or fails the test; the configs here never
// set a DataDir that can fail to open.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// tinyNetlist is a minimal valid netlist used where routing speed
// doesn't matter (the injected RunFunc never touches it).
const tinyNetlist = "netlist t 8 8 2\nnet a 1 1 5 1\nnet b 2 3 2 6\n"

func netlistVariant(i int) string {
	return fmt.Sprintf("netlist t%d 8 8 2\nnet a 1 1 5 1\nnet b 2 3 2 %d\n", i, 4+i%3)
}

func submitBody(t *testing.T, netlistText string, spec bench.RunSpec) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(api.SubmitRequest{Netlist: netlistText, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func doSubmit(t *testing.T, ts *httptest.Server, netlistText string, spec bench.RunSpec) (int, api.SubmitResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, netlistText, spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr api.SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, sr, resp.Header
}

func pollDone(t *testing.T, ts *httptest.Server, id string) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch jr.Status {
		case api.StatusDone, api.StatusFailed:
			return jr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobResponse{}
}

// blockingRun returns a RunFunc that signals each start on started and
// blocks until release is closed (or the context dies).
func blockingRun(started chan string, release chan struct{}) RunFunc {
	return func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, _ *router.Arena) (api.Result, error) {
		started <- nl.Name
		select {
		case <-release:
			return api.Result{Spec: spec, Row: bench.Row{CKT: nl.Name, WL: 42, Routability: 1}}, nil
		case <-ctx.Done():
			return api.Result{}, ctx.Err()
		}
	}
}

// End-to-end over the real flow: the same netlist submitted twice
// routes once; the replay is a cache hit with byte-identical result
// JSON.
func TestEndToEndCacheHit(t *testing.T) {
	raw, err := os.ReadFile("../../examples/tiny.net")
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, QueueSize: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := bench.RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
	code, sr, _ := doSubmit(t, ts, string(raw), spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	first := pollDone(t, ts, sr.ID)
	if first.Status != api.StatusDone {
		t.Fatalf("first job: %+v", first)
	}
	res, err := first.DecodeResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Row.Routability != 1 || res.Row.WL == 0 || res.Row.Vias == 0 {
		t.Fatalf("implausible result: %+v", res.Row)
	}
	if got := s.Metrics().Routed.Load(); got != 1 {
		t.Fatalf("routed counter after first job: %d", got)
	}

	code, sr2, _ := doSubmit(t, ts, string(raw), spec)
	if code != http.StatusOK || !sr2.CacheHit {
		t.Fatalf("second submit: status %d, %+v", code, sr2)
	}
	second := pollDone(t, ts, sr2.ID)
	if !second.CacheHit {
		t.Fatalf("second job not marked cache hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cache replay not byte-identical:\n%s\nvs\n%s", first.Result, second.Result)
	}
	if got := s.Metrics().Routed.Load(); got != 1 {
		t.Fatalf("cache hit re-routed: routed counter %d", got)
	}
	if got := s.Metrics().CacheHits.Load(); got != 1 {
		t.Fatalf("cache hit counter: %d", got)
	}
}

// A result the ILP's wall-clock limit stopped depends on the machine,
// so it lists dvi-ilp-timeout and never enters the cache, with or
// without Degrade: its resubmission routes again. The same job under a
// node limit, the deterministic budget, is an ordinary result whose
// resubmission is a cache hit. efc-t under SIM holds a component that
// 400 000 nodes do not prove, so 50 ms always stops it and 100 nodes
// always cap it first.
func TestILPTimeoutNeverCached(t *testing.T) {
	var buf bytes.Buffer
	if err := bench.Generate(bench.TinySuite()[1]).Write(&buf); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, QueueSize: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(spec bench.RunSpec, wantCode int) *api.Result {
		t.Helper()
		code, sr, _ := doSubmit(t, ts, buf.String(), spec)
		if code != wantCode || sr.CacheHit != (wantCode == http.StatusOK) {
			t.Fatalf("node limit %d: submit status %d, cache hit %v; want status %d",
				spec.ILPNodeLimit, code, sr.CacheHit, wantCode)
		}
		jr := pollDone(t, ts, sr.ID)
		res, err := jr.DecodeResult()
		if err != nil {
			t.Fatalf("node limit %d: %+v: %v", spec.ILPNodeLimit, jr, err)
		}
		return res
	}
	spec := bench.RunSpec{
		Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
		Method: bench.ILPDVI, ILPTimeLimit: 50 * time.Millisecond,
	}
	for i := 0; i < 2; i++ {
		if res := run(spec, http.StatusAccepted); !slices.Contains(res.Degraded, "dvi-ilp-timeout") {
			t.Fatalf("time-limited run %d: Degraded %v, want dvi-ilp-timeout", i, res.Degraded)
		}
	}
	if got := s.Metrics().Routed.Load(); got != 2 {
		t.Fatalf("routed %d times, want 2: a timed-out result was served from the cache", got)
	}

	spec.ILPNodeLimit = 100
	if res := run(spec, http.StatusAccepted); len(res.Degraded) != 0 {
		t.Fatalf("node-capped run: Degraded %v, want none", res.Degraded)
	}
	run(spec, http.StatusOK)
	if got := s.Metrics().Routed.Load(); got != 3 {
		t.Fatalf("routed %d times, want 3: the node-capped resubmission missed the cache", got)
	}
}

// A job submitted with "verify": true runs the real flow and reports
// the independent checker's verdict in the result; the same submission
// without verification is a distinct cache entry carrying no report.
func TestPerJobVerify(t *testing.T) {
	raw, err := os.ReadFile("../../examples/tiny.net")
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, QueueSize: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := bench.RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
	code, plain, _ := doSubmit(t, ts, string(raw), spec)
	if code != http.StatusAccepted {
		t.Fatalf("plain submit: status %d", code)
	}
	jr := pollDone(t, ts, plain.ID)
	res, err := jr.DecodeResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify != nil {
		t.Fatalf("verify report present without verify option: %+v", res.Verify)
	}

	spec.Verify = true
	code, verified, _ := doSubmit(t, ts, string(raw), spec)
	if code != http.StatusAccepted {
		t.Fatalf("verify submit: status %d (the verify spec must miss the cache)", code)
	}
	jr = pollDone(t, ts, verified.ID)
	res, err = jr.DecodeResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil {
		t.Fatal("verify option set but result has no verify report")
	}
	if !res.Verify.Ok || len(res.Verify.Violations) != 0 {
		t.Fatalf("verifier rejects the service's own solution: %+v", res.Verify)
	}
}

// A queue sized N rejects submission N+1 with 429 and a Retry-After
// header while the worker is busy.
func TestQueueFullRejectsWith429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := mustNew(t, Config{Workers: 1, QueueSize: 1, Run: blockingRun(started, release)})
	defer func() { close(release); s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := bench.RunSpec{Method: bench.NoDVI}
	if code, _, _ := doSubmit(t, ts, netlistVariant(0), spec); code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	<-started // the worker holds job 1; the queue is empty again
	if code, _, _ := doSubmit(t, ts, netlistVariant(1), spec); code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", code)
	}
	code, _, hdr := doSubmit(t, ts, netlistVariant(2), spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit 3 with full queue: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.Metrics().Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter: %d", got)
	}
}

// Concurrent identical submissions are single-flighted onto one job.
func TestSingleFlight(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, Run: blockingRun(started, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := bench.RunSpec{Method: bench.NoDVI}
	code, sr1, _ := doSubmit(t, ts, tinyNetlist, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	<-started
	code, sr2, _ := doSubmit(t, ts, tinyNetlist, spec)
	if code != http.StatusAccepted || !sr2.Deduped {
		t.Fatalf("submit 2: status %d, %+v, want deduped 202", code, sr2)
	}
	if sr1.ID != sr2.ID {
		t.Fatalf("dedup returned a different job: %s vs %s", sr1.ID, sr2.ID)
	}
	close(release)
	jr := pollDone(t, ts, sr1.ID)
	if jr.Status != api.StatusDone {
		t.Fatalf("job: %+v", jr)
	}
	if got := s.Metrics().Routed.Load(); got != 1 {
		t.Fatalf("single-flighted pair routed %d times", got)
	}
	if got := s.Metrics().Deduped.Load(); got != 1 {
		t.Fatalf("deduped counter: %d", got)
	}
}

// Shutdown completes the in-flight job before returning, and new
// submissions are refused while draining.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, Run: blockingRun(started, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := bench.RunSpec{Method: bench.NoDVI}
	code, sr, _ := doSubmit(t, ts, tinyNetlist, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a job was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if code, _, _ := doSubmit(t, ts, netlistVariant(9), spec); code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: status %d, want 503", code)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	jr := pollDone(t, ts, sr.ID)
	if jr.Status != api.StatusDone {
		t.Fatalf("in-flight job not completed by drain: %+v", jr)
	}
	if got := s.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed counter: %d", got)
	}
}

// The per-job timeout cancels a stuck job and records it as failed.
func TestJobTimeout(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, JobTimeout: 30 * time.Millisecond, Run: blockingRun(started, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, sr, _ := doSubmit(t, ts, tinyNetlist, bench.RunSpec{Method: bench.NoDVI})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started
	jr := pollDone(t, ts, sr.ID)
	if jr.Status != api.StatusFailed || !strings.Contains(jr.Error, "deadline") {
		t.Fatalf("timed-out job: %+v", jr)
	}
	if got := s.Metrics().Canceled.Load(); got != 1 {
		t.Fatalf("canceled counter: %d", got)
	}
}

// Input validation at the trust boundary.
func TestSubmitValidation(t *testing.T) {
	// The stub run never builds a grid, so a check that let an
	// oversized netlist through fails the assertions below instead of
	// allocating it.
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 1, QueueSize: 1, MaxGridCells: 1 << 20, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", code)
	}
	mustJSON := func(netlistText, specJSON string) string {
		nb, _ := json.Marshal(netlistText)
		return `{"netlist":` + string(nb) + `,"spec":` + specJSON + `}`
	}
	if code := post(mustJSON("netlist x 0 0 2\n", `{}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid netlist: status %d", code)
	}
	if code := post(mustJSON("netlist x 8 8 2\nnet a 1 1 5 1\nnet b 5 1 2 6\n", `{}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("nets sharing a pin: status %d, want 422", code)
	}
	if code := post(mustJSON("netlist x 100000 100000 2\nnet a 1 1 2 2\n", `{}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized grid: status %d", code)
	}
	// Under the cell cap but past the router's limits: 16 500 tracks
	// overflow its packed coordinates, and 2^62 layers wrap the cell
	// product 2·2·2^62 to 0.
	for _, text := range []string{
		"netlist x 16500 4 2\nnet a 0 0 16499 3\n",
		"netlist x 2 2 4611686018427387904\nnet a 0 0 1 1\n",
	} {
		if code := post(mustJSON(text, `{}`)); code != http.StatusUnprocessableEntity {
			t.Fatalf("grid past the router's limits %q: status %d, want 422", text, code)
		}
	}
	if code := post(mustJSON(tinyNetlist, `{"method":"bogus"}`)); code != http.StatusBadRequest {
		t.Fatalf("bogus method: status %d", code)
	}
	// The removed queue-backend and router-parallelism knobs are
	// unknown fields now, not silently ignored ones.
	for _, spec := range []string{`{"method":"heur","queue":"heap"}`, `{"method":"heur","workers":4}`} {
		if code := post(mustJSON(tinyNetlist, spec)); code != http.StatusBadRequest {
			t.Fatalf("spec %s: status %d, want 400", spec, code)
		}
	}
	// Out-of-range routing parameters are refused before they take a
	// queue slot, including a partial block that leaves non_pref_mul 0
	// and a via cost (2^40) that would overflow the search's bucket
	// ring.
	for _, params := range []string{
		`{"alpha":8,"amc":1,"beta":4,"gamma":4,"via_cost":1099511627776,"non_pref_mul":4,"non_pref_turn_cost":2,"usage_penalty":12,"hist_inc":3}`,
		`{"alpha":-40,"amc":1,"beta":4,"gamma":4,"via_cost":4,"non_pref_mul":4,"non_pref_turn_cost":2,"usage_penalty":12,"hist_inc":3}`,
		`{"alpha":8,"amc":1,"beta":4,"gamma":4,"via_cost":-50,"non_pref_mul":4,"non_pref_turn_cost":2,"usage_penalty":12,"hist_inc":3}`,
		`{"alpha":8,"amc":1,"beta":4,"gamma":4,"via_cost":4,"non_pref_mul":-3,"non_pref_turn_cost":2,"usage_penalty":12,"hist_inc":3}`,
		`{"via_cost":4}`,
	} {
		if code := post(mustJSON(tinyNetlist, `{"method":"heur","params":`+params+`}`)); code != http.StatusUnprocessableEntity {
			t.Fatalf("params %s: status %d, want 422", params, code)
		}
	}
	if got := s.metrics.Submitted.Load(); got != 0 {
		t.Fatalf("rejected submissions were counted as submitted: %d", got)
	}
	if n := len(s.queue); n != 0 {
		t.Fatalf("rejected submissions left %d jobs on the queue", n)
	}
	if recs, err := readJournal(filepath.Join(dir, journalFileName)); err != nil || len(recs) != 0 {
		t.Fatalf("rejected submissions journaled %d records (err %v)", len(recs), err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}

// healthz and metrics endpoints respond and carry the expected shape.
func TestHealthAndMetrics(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sadprouted_jobs_submitted_total",
		"sadprouted_jobs_routed_total",
		"sadprouted_cache_hits_total",
		"sadprouted_queue_depth",
		"sadprouted_draining 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", resp.StatusCode)
	}
}
