package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/service/api"
)

const tinyNetlist = "netlist t 8 8 2\nnet a 1 1 5 1\nnet b 2 3 2 6\n"

func netlistVariant(i int) string {
	return fmt.Sprintf("netlist t%d 8 8 2\nnet a 1 1 5 1\nnet b 2 3 2 %d\n", i, 4+i%3)
}

// stubRun is a fast deterministic stand-in for the real flow.
func stubRun(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, _ *router.Arena) (api.Result, error) {
	return api.Result{Spec: spec, Row: bench.Row{CKT: nl.Name, WL: 10 + len(nl.Nets), Routability: 1}}, nil
}

// newCluster builds an ExternalExec service wrapped in a coordinator
// and serves it over httptest. Callers own worker lifecycles.
func newCluster(t *testing.T, svcCfg service.Config, coordCfg CoordinatorConfig) (*service.Server, *Coordinator, *httptest.Server) {
	t.Helper()
	svcCfg.ExternalExec = true
	if svcCfg.Run == nil {
		svcCfg.Run = stubRun
	}
	svc, err := service.New(svcCfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	coord := NewCoordinator(svc, coordCfg)
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	})
	return svc, coord, ts
}

// startWorker runs a worker until the test ends or stop is called.
func startWorker(t *testing.T, cfg WorkerConfig) (stop func()) {
	t.Helper()
	if cfg.PullWait == 0 {
		cfg.PullWait = 200 * time.Millisecond
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 25 * time.Millisecond
	}
	if cfg.Run == nil {
		cfg.Run = stubRun
	}
	w := NewWorker(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

func submit(t *testing.T, ts *httptest.Server, netlistText string, spec bench.RunSpec) api.SubmitResponse {
	t.Helper()
	b, err := json.Marshal(api.SubmitRequest{Netlist: netlistText, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sr api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func pollTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
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
		case api.StatusDone, api.StatusFailed, api.StatusQuarantined:
			return jr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in %s", id, timeout)
	return api.JobResponse{}
}

// One coordinator, one worker: jobs flow pull → run → upload → done,
// and the response names the executing worker.
func TestClusterEndToEnd(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{}, CoordinatorConfig{})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "w1", Slots: 2})

	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		sr := submit(t, ts, netlistVariant(i), bench.RunSpec{})
		ids = append(ids, sr.ID)
	}
	for _, id := range ids {
		jr := pollTerminal(t, ts, id, 10*time.Second)
		if jr.Status != api.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, jr.Status, jr.Error)
		}
		if jr.Worker != "w1" {
			t.Fatalf("job %s: worker %q, want w1", id, jr.Worker)
		}
	}
	if got := svc.Metrics().Completed.Load(); got != 3 {
		t.Fatalf("completed %d, want 3", got)
	}
	// Identical resubmission is a coordinator-side cache hit: no
	// dispatch, byte-identical result.
	first := pollTerminal(t, ts, ids[0], time.Second)
	sr := submit(t, ts, netlistVariant(0), bench.RunSpec{})
	if !sr.CacheHit {
		t.Fatalf("resubmission not served from cache: %+v", sr)
	}
	jr := pollTerminal(t, ts, sr.ID, time.Second)
	if !bytes.Equal(jr.Result, first.Result) {
		t.Fatalf("cache replay bytes differ:\n%s\n%s", jr.Result, first.Result)
	}
}

// Satellite 1: a duplicated /cluster/v1/result upload (fault.Transport
// rpc.dup) is accepted exactly once — the second delivery is a no-op
// answered "duplicate", the job completes once.
func TestIdempotentDuplicateResultUpload(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{}, CoordinatorConfig{})

	inj := fault.New(1)
	inj.Configure("rpc.dup:"+PathResult, fault.SiteConfig{Times: -1})
	client := &http.Client{Transport: &fault.Transport{Injector: inj}}
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "dup-w", Client: client})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("status %s (%s)", jr.Status, jr.Error)
	}
	if got := inj.Trips("rpc.dup:" + PathResult); got < 1 {
		t.Fatalf("duplication site never tripped (trips=%d)", got)
	}
	if got := svc.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
	// The duplicated (second) delivery may still be in flight when the
	// job turns done; wait for its no-op verdict to land.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().ClusterDupResults.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Metrics().ClusterDupResults.Load(); got < 1 {
		t.Fatalf("ClusterDupResults %d, want >= 1", got)
	}
	if got := svc.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d after duplicate, want exactly 1", got)
	}
}

// A worker that dies holding a lease loses it at expiry; the sweeper
// re-places the job on the surviving worker and the result reports
// that worker.
func TestLeaseExpiryRequeues(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 3}, CoordinatorConfig{
		LeaseTTL:   150 * time.Millisecond,
		SweepEvery: 25 * time.Millisecond,
	})

	// doomed pulls the first job and dies silently before running it.
	inj := fault.New(1)
	inj.Configure("worker.kill", fault.SiteConfig{Times: 1})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "doomed", Fault: inj})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})

	// Give doomed time to pull and die, then bring up the survivor.
	deadline := time.Now().Add(5 * time.Second)
	for inj.Trips("worker.kill") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if inj.Trips("worker.kill") == 0 {
		t.Fatal("kill site never tripped")
	}
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "survivor"})

	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("status %s (%s)", jr.Status, jr.Error)
	}
	if jr.Worker != "survivor" {
		t.Fatalf("worker %q, want survivor", jr.Worker)
	}
	if got := svc.Metrics().ClusterRequeues.Load(); got < 1 {
		t.Fatalf("ClusterRequeues %d, want >= 1", got)
	}
}

// Heartbeats keep a long job's lease alive well past the TTL: no
// spurious requeue, the original worker's result is accepted.
func TestHeartbeatRenewalKeepsLease(t *testing.T) {
	release := make(chan struct{})
	slowRun := func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, _ *router.Arena) (api.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return api.Result{}, ctx.Err()
		}
		return stubRun(ctx, nl, spec, nil)
	}
	svc, _, ts := newCluster(t, service.Config{}, CoordinatorConfig{
		LeaseTTL:   120 * time.Millisecond,
		SweepEvery: 20 * time.Millisecond,
	})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "steady", Run: slowRun, HeartbeatEvery: 25 * time.Millisecond})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	// Hold the job across several lease TTLs.
	time.Sleep(500 * time.Millisecond)
	close(release)
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("status %s (%s)", jr.Status, jr.Error)
	}
	if jr.Worker != "steady" {
		t.Fatalf("worker %q, want steady", jr.Worker)
	}
	if got := svc.Metrics().ClusterRequeues.Load(); got != 0 {
		t.Fatalf("ClusterRequeues %d, want 0", got)
	}
}

// A dropped heartbeat stream expires the lease even though the worker
// process is alive and mid-job; when its (now stale) success upload
// lands it is still accepted — deterministic results make it
// equivalent to the rerun's — and the rerun's copy becomes a no-op.
func TestDroppedHeartbeatsStaleSuccessAccepted(t *testing.T) {
	block := make(chan struct{})
	slowRun := func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, _ *router.Arena) (api.Result, error) {
		// Ignore cancellation: this worker believes it is healthy and
		// finishes its work regardless (a wedged-then-recovered box).
		<-block
		return stubRun(ctx, nl, spec, nil)
	}
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 3}, CoordinatorConfig{
		LeaseTTL:   100 * time.Millisecond,
		SweepEvery: 20 * time.Millisecond,
	})
	inj := fault.New(1)
	inj.Configure("cluster.heartbeat.drop", fault.SiteConfig{Times: -1})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "mute", Run: slowRun, Fault: inj})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	// Wait until the lease expires and the job is requeued.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().ClusterRequeues.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.Metrics().ClusterRequeues.Load() == 0 {
		t.Fatal("lease never expired despite dropped heartbeats")
	}
	// Now let the mute worker finish; its upload quotes the expired
	// lease but carries a success payload → accepted.
	close(block)
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("status %s (%s)", jr.Status, jr.Error)
	}
	deadline = time.Now().Add(5 * time.Second)
	for svc.Metrics().ClusterStaleResults.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Metrics().ClusterStaleResults.Load(); got < 1 {
		t.Fatalf("ClusterStaleResults %d, want >= 1", got)
	}
	if got := svc.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
}

// A worker panic before the attempt budget is spent re-places the job;
// on the last attempt it quarantines the content address — the
// cluster form of poison-job isolation.
func TestWorkerPanicRequeuesThenQuarantines(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 2}, CoordinatorConfig{})
	inj := fault.New(1)
	inj.Configure("worker.panic", fault.SiteConfig{Times: -1, Panic: true})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "panicky", Fault: inj})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusQuarantined {
		t.Fatalf("status %s, want quarantined (%s)", jr.Status, jr.Error)
	}
	if !strings.Contains(jr.Error, "2 panicking attempts") {
		t.Fatalf("quarantine message %q", jr.Error)
	}
	// Resubmission of the poison payload is answered from the
	// quarantine registry without dispatch.
	sr2 := submit(t, ts, tinyNetlist, bench.RunSpec{})
	if sr2.Status != api.StatusQuarantined {
		t.Fatalf("resubmission status %s, want quarantined", sr2.Status)
	}
	if got := svc.Metrics().Quarantined.Load(); got != 1 {
		t.Fatalf("quarantined %d, want 1", got)
	}
	if got := svc.Metrics().Panics.Load(); got != 2 {
		t.Fatalf("panics %d, want 2 (one per panicking attempt)", got)
	}
}

// Satellite 3 (unit form): the coordinator crashes after placing a job
// (journaled running record, no terminal record). The next boot
// replays it as queued with the attempt count preserved — never lost —
// and the exactly-once gate means it cannot double-complete.
func TestCoordinatorCrashMidDispatchReplaysJob(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{ExternalExec: true, DataDir: dir, Run: stubRun, MaxAttempts: 3}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})

	// Simulate the coordinator's dispatch path up to the crash: the
	// job is dequeued and journaled as running on w1, then the process
	// dies before any result arrives. No clean shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := svc.Dequeue(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.StartAttempt(a, "w1"); got != 1 {
		t.Fatalf("attempt %d, want 1", got)
	}
	ts.Close() // abandon svc without Shutdown — journal stays as-crashed

	// Next life: in-process execution this time, so the replayed job
	// routes to completion.
	svc2, err := service.New(service.Config{DataDir: dir, Run: stubRun, MaxAttempts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown(context.Background())
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	if got := svc2.Metrics().Replayed.Load(); got != 1 {
		t.Fatalf("replayed %d jobs, want 1", got)
	}
	jr := pollTerminal(t, ts2, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("replayed job status %s (%s)", jr.Status, jr.Error)
	}
	if got := svc2.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
}

// The seam's transitions are exactly-once at the service layer: the
// second completion of the same assignment reports false and bumps
// nothing.
func TestCompleteExactlyOnce(t *testing.T) {
	svc, err := service.New(service.Config{ExternalExec: true, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, err := svc.Dequeue(ctx)
	if err != nil {
		t.Fatal(err)
	}
	svc.StartAttempt(a, "w1")
	raw := json.RawMessage(`{"row":{"ckt":"t"}}`)
	if !svc.Complete(a, raw, false, "w1") {
		t.Fatal("first completion lost")
	}
	if svc.Complete(a, raw, false, "w2") {
		t.Fatal("second completion won")
	}
	if svc.Fail(a, "late failure", false) {
		t.Fatal("late failure overrode completion")
	}
	if got := svc.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	jr := pollTerminal(t, ts, sr.ID, time.Second)
	if jr.Status != api.StatusDone || jr.Worker != "w1" {
		t.Fatalf("job %+v, want done on w1", jr)
	}
	if !bytes.Equal(jr.Result, raw) {
		t.Fatalf("result %s, want %s", jr.Result, raw)
	}
}

// The composed /metrics exposition carries the cluster counters,
// gauges and the per-worker latency histogram.
func TestClusterMetricsExposition(t *testing.T) {
	_, _, ts := newCluster(t, service.Config{}, CoordinatorConfig{})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "m1"})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	pollTerminal(t, ts, sr.ID, 10*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"sadprouted_cluster_workers 1",
		"sadprouted_cluster_leases_active 0",
		"sadprouted_cluster_requeues_total 0",
		`sadprouted_cluster_job_seconds_count{worker="m1"} 1`,
		"sadprouted_jobs_completed_total 1",
		// Robustness counters render (headers at least) even when idle.
		"# TYPE sadprouted_cluster_upload_rejects_total counter",
		"# TYPE sadprouted_cluster_retry_attempts_total counter",
		"sadprouted_cluster_worker_quarantines_total 0",
		"sadprouted_cluster_hedged_dispatch_total 0",
		"sadprouted_cluster_spool_replays_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestCoordinatorBackpressure: with no worker pulling, a coordinator
// accepts at most QueueSize distinct submissions and answers the rest
// 429 with Retry-After, as a standalone server does. The accepted jobs
// wait in the service queue, counted by the queue-depth gauge, until a
// worker takes them.
func TestCoordinatorBackpressure(t *testing.T) {
	const queueSize, submissions = 2, 20
	svc, _, ts := newCluster(t, service.Config{QueueSize: queueSize}, CoordinatorConfig{})
	var ids []string
	for i := 0; i < submissions; i++ {
		b, err := json.Marshal(api.SubmitRequest{Netlist: netlistVariant(i)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var sr api.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		switch {
		case err != nil:
			t.Fatalf("submission %d: %v", i, err)
		case resp.StatusCode == http.StatusAccepted:
			ids = append(ids, sr.ID)
		case resp.StatusCode != http.StatusTooManyRequests:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		case resp.Header.Get("Retry-After") == "":
			t.Fatalf("submission %d: 429 without Retry-After", i)
		}
	}
	if len(ids) != queueSize {
		t.Fatalf("accepted %d of %d submissions with no worker pulling, want %d", len(ids), submissions, queueSize)
	}
	if got := svc.Metrics().Rejected.Load(); got != submissions-queueSize {
		t.Fatalf("rejected counter %d, want %d", got, submissions-queueSize)
	}
	if got := sample(t, ts, "sadprouted_queue_depth"); got != fmt.Sprint(queueSize) {
		t.Fatalf("queue depth %q with no worker pulling, want %d", got, queueSize)
	}

	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "w1"})
	for _, id := range ids {
		if jr := pollTerminal(t, ts, id, 10*time.Second); jr.Status != api.StatusDone {
			t.Fatalf("job %s: %+v", id, jr)
		}
	}
	if got := sample(t, ts, "sadprouted_queue_depth"); got != "0" {
		t.Fatalf("queue depth %q after the worker drained it, want 0", got)
	}
}

// TestControlBodiesBounded: a 2 MiB pull and a 2 MiB heartbeat, on the
// listener that also serves the public API, are each answered 413
// without being decoded, and the coordinator then grants a normal pull.
func TestControlBodiesBounded(t *testing.T) {
	_, _, ts := newCluster(t, service.Config{}, CoordinatorConfig{})
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	huge := []byte(`{"worker_id":"` + strings.Repeat("w", 2<<20) + `"}`)
	for _, path := range []string{PathPull, PathHeartbeat} {
		resp := post(path, huge)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("2 MiB body to %s answered %d, want 413", path, resp.StatusCode)
		}
	}
	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	b, err := json.Marshal(PullRequest{WorkerID: "w", WaitMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(PathPull, b)
	defer resp.Body.Close()
	var pr PullResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || pr.Job == nil || pr.Job.ID != sr.ID {
		t.Fatalf("pull after the oversized bodies: status %d, %+v; want job %s", resp.StatusCode, pr, sr.ID)
	}
	// End the leased job so the coordinator's shutdown need not wait.
	j := pr.Job
	b, err = json.Marshal(ResultRequest{WorkerID: "w", JobID: j.ID, Lease: j.Lease, Key: j.Key, Outcome: service.Outcome{Error: "test over"}})
	if err != nil {
		t.Fatal(err)
	}
	up := post(PathResult, b)
	up.Body.Close()
	if jr := pollTerminal(t, ts, sr.ID, 5*time.Second); jr.Status != api.StatusFailed {
		t.Fatalf("job after the error upload: %+v", jr)
	}
}
