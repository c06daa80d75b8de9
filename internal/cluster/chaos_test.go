package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/service/api"
)

// clusterRPC posts one raw cluster RPC — the harness for tests that
// act as a hand-rolled (possibly byzantine) worker.
func clusterRPC(t *testing.T, ts *httptest.Server, path string, in, out interface{}) int {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// pullJob long-polls as workerID until a job is granted (or the
// deadline passes).
func pullJob(t *testing.T, ts *httptest.Server, workerID string) *JobAssignment {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var pr PullResponse
		clusterRPC(t, ts, PathPull, PullRequest{WorkerID: workerID, WaitMS: 500}, &pr)
		if pr.Quarantined {
			t.Fatalf("worker %s quarantined while expecting a grant", workerID)
		}
		if pr.Job != nil {
			return pr.Job
		}
	}
	t.Fatalf("worker %s never granted a job", workerID)
	return nil
}

// garbage is a forged result payload: well-formed JSON that is not an
// api.Result. A forger holding a lease can checksum its own bytes, so
// the forged uploads below carry a correct checksum and reach the
// decode tier.
var garbage = json.RawMessage(`[1,2,3]`)

// signed is an upload of raw with the checksum of exactly those bytes,
// as an honest worker sends it.
func signed(raw json.RawMessage, degraded bool) ResultRequest {
	return ResultRequest{Outcome: service.Outcome{Result: raw, Degraded: degraded}, Checksum: checksum(raw)}
}

// TestValidateUpload pins the validator's checksum and structural
// tiers: every reject class fires on the payload shape it names, and
// honest payloads pass.
func TestValidateUpload(t *testing.T) {
	spec := bench.RunSpec{}
	key, err := service.ContentAddress(tinyNetlist, spec)
	if err != nil {
		t.Fatal(err)
	}
	a := &service.Assignment{ID: "j1", Key: key, Netlist: tinyNetlist, Spec: spec}
	okPayload := func() json.RawMessage {
		raw, merr := json.Marshal(api.Result{Spec: spec, Row: bench.Row{CKT: "t", WL: 12}})
		if merr != nil {
			t.Fatal(merr)
		}
		return raw
	}

	specSol := bench.RunSpec{IncludeSolution: true}
	keySol, err := service.ContentAddress(tinyNetlist, specSol)
	if err != nil {
		t.Fatal(err)
	}
	aSol := &service.Assignment{ID: "j2", Key: keySol, Netlist: tinyNetlist, Spec: specSol}
	solPayload := func(sol json.RawMessage, wl int) json.RawMessage {
		raw, merr := json.Marshal(api.Result{Spec: specSol, Row: bench.Row{CKT: "t", WL: wl}, Solution: sol})
		if merr != nil {
			t.Fatal(merr)
		}
		return raw
	}

	wrongSpec := spec
	wrongSpec.ConsiderDVI = true
	wrongSpecPayload, err := json.Marshal(api.Result{Spec: wrongSpec, Row: bench.Row{CKT: "t"}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		a      *service.Assignment
		req    ResultRequest
		reason string
	}{
		{"honest", a, signed(okPayload(), false), ""},
		{"checksum missing", a, ResultRequest{Outcome: service.Outcome{Result: okPayload()}}, rejectChecksum},
		{"bytes changed in flight", a, ResultRequest{Outcome: service.Outcome{Result: okPayload()}, Checksum: checksum(wrongSpecPayload)}, rejectChecksum},
		{"garbage bytes", a, signed(garbage, false), rejectDecode},
		{"wrong spec echoed", a, signed(wrongSpecPayload, false), rejectContentAddress},
		{"degraded flag lie", a, signed(okPayload(), true), rejectDegradedFlag},
		{"solution withheld", aSol, signed(solPayload(nil, 0), false), rejectSolutionMissing},
		{"solution not routes", aSol, signed(solPayload(json.RawMessage(`{"bad":1}`), 0), false), rejectSolutionDecode},
		{"inflated metrics", aSol, signed(solPayload(json.RawMessage(`[]`), 5), false), rejectMetricRecount},
		{"empty but honest", aSol, signed(solPayload(json.RawMessage(`[]`), 0), false), ""},
	}
	for _, tc := range cases {
		reason, verr := validateUpload(tc.a, &tc.req, false)
		if reason != tc.reason {
			t.Errorf("%s: reason %q (%v), want %q", tc.name, reason, verr, tc.reason)
		}
	}
}

// A forged upload — valid lease, garbage payload — is answered
// "rejected", the job is re-placed away from the forger, and an honest
// worker completes it. The forger's computed-looking bytes never reach
// the store.
func TestRejectedUploadRequeuesJob(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 5}, CoordinatorConfig{})
	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})

	job := pullJob(t, ts, "evil")
	var rr ResultResponse
	code := clusterRPC(t, ts, PathResult, ResultRequest{
		WorkerID: "evil", JobID: job.ID, Lease: job.Lease, Key: job.Key,
		Outcome: service.Outcome{Result: garbage}, Checksum: checksum(garbage),
	}, &rr)
	if code != http.StatusOK || rr.Status != ResultRejected || rr.Reason != rejectDecode {
		t.Fatalf("forged upload: code %d status %q reason %q, want 200 rejected/decode", code, rr.Status, rr.Reason)
	}

	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "good"})
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone || jr.Worker != "good" {
		t.Fatalf("job %+v, want done on good", jr)
	}
	m := svc.Metrics()
	if got := m.ClusterUploadRejects.Get(rejectDecode); got != 1 {
		t.Fatalf("upload rejects{decode} %d, want 1", got)
	}
	if got := m.Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
	if got := m.ClusterWorkerQuarantines.Load(); got != 0 {
		t.Fatalf("quarantines %d, want 0 (one reject is under the budget)", got)
	}
}

// A worker that keeps uploading garbage exhausts its rejection budget
// and is quarantined: its next pull tells it so, it is never granted
// work again, and the poisoned jobs complete on an honest worker.
func TestWorkerQuarantineAfterRejectBudget(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 10}, CoordinatorConfig{RejectBudget: 1})
	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})

	// Two rejects: the first charges the budget, the second exceeds it.
	// Between them the job is re-granted to evil via the last-resort
	// rule (it is the only live worker).
	for i := 0; i < 2; i++ {
		job := pullJob(t, ts, "evil")
		var rr ResultResponse
		clusterRPC(t, ts, PathResult, ResultRequest{
			WorkerID: "evil", JobID: job.ID, Lease: job.Lease, Key: job.Key,
			Outcome: service.Outcome{Result: garbage}, Checksum: checksum(garbage),
		}, &rr)
		if rr.Status != ResultRejected {
			t.Fatalf("upload %d: status %q, want rejected", i+1, rr.Status)
		}
	}
	var pr PullResponse
	clusterRPC(t, ts, PathPull, PullRequest{WorkerID: "evil", WaitMS: 0}, &pr)
	if !pr.Quarantined || pr.Job != nil {
		t.Fatalf("post-quarantine pull %+v, want Quarantined and no job", pr)
	}
	if got := svc.Metrics().ClusterWorkerQuarantines.Load(); got != 1 {
		t.Fatalf("quarantines %d, want 1", got)
	}

	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "good"})
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone || jr.Worker != "good" {
		t.Fatalf("job %+v, want done on good", jr)
	}
	if got := svc.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
}

// The Worker client exits ErrQuarantined when a pull answers
// Quarantined, instead of spinning forever against a coordinator that
// will never grant it work.
func TestWorkerRunExitsOnQuarantine(t *testing.T) {
	_, coord, ts := newCluster(t, service.Config{}, CoordinatorConfig{})
	coord.mu.Lock()
	coord.quarantined["pariah"] = true
	coord.mu.Unlock()

	w := NewWorker(WorkerConfig{Coordinator: ts.URL, ID: "pariah", PullWait: 100 * time.Millisecond, PollInterval: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != ErrQuarantined {
		t.Fatalf("Run returned %v, want ErrQuarantined", err)
	}
}

// Satellite: a worker killed in the spool-to-upload window loses
// nothing — its next life replays the spooled result without
// recomputing, the coordinator accepts it, and the spool entry is
// removed once confirmed.
func TestSpoolReplayAfterWorkerRestart(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{}, CoordinatorConfig{})
	dir := t.TempDir()

	inj := fault.New(1)
	inj.Configure("spool.crash", fault.SiteConfig{Times: 1})
	stop1 := startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "sp", SpoolDir: dir, Fault: inj})

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	deadline := time.Now().Add(10 * time.Second)
	for inj.Trips("spool.crash") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if inj.Trips("spool.crash") == 0 {
		t.Fatal("spool.crash site never tripped")
	}
	stop1()
	entries, _ := filepath.Glob(filepath.Join(dir, "*"+spoolSuffix))
	if len(entries) != 1 {
		t.Fatalf("spool holds %d results after the crash, want 1", len(entries))
	}

	// Same identity, same spool; the flow must NOT run again — the
	// result is already on disk.
	var reran atomic.Bool
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "sp", SpoolDir: dir,
		Run: func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, a *router.Arena) (api.Result, error) {
			reran.Store(true)
			return stubRun(ctx, nl, spec, a)
		}})

	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone || jr.Worker != "sp" {
		t.Fatalf("job %+v, want done on sp", jr)
	}
	if reran.Load() {
		t.Fatal("flow re-ran despite a spooled result")
	}
	if got := svc.Metrics().ClusterSpoolReplays.Load(); got != 1 {
		t.Fatalf("spool replays %d, want 1", got)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if entries, _ = filepath.Glob(filepath.Join(dir, "*"+spoolSuffix)); len(entries) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(entries) != 0 {
		t.Fatalf("spool not emptied after confirmed replay: %v", entries)
	}
	if got := svc.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
}

// Tentpole: a straggler holding a job past HedgeMultiple × the fleet
// median gets a second, concurrent lease on another worker; the fast
// copy's upload decides the job and the straggler's execution is
// abandoned. No lease expiry is involved — the straggler stays
// healthy and heartbeating throughout.
func TestHedgedStragglerRedispatch(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 4}, CoordinatorConfig{
		LeaseTTL:        2 * time.Second,
		SweepEvery:      20 * time.Millisecond,
		HedgeMultiple:   3,
		HedgeMinSamples: 3,
	})

	started := make(chan struct{})
	block := make(chan struct{})
	slugRun := func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, a *router.Arena) (api.Result, error) {
		if nl.Name == "t" { // the target job wedges; warmups fly
			close(started)
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return stubRun(ctx, nl, spec, a)
	}
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "slug", Run: slugRun})

	// Warmups seed the latency histogram so the median is trusted.
	for i := 0; i < 3; i++ {
		wr := submit(t, ts, netlistVariant(i), bench.RunSpec{})
		if jr := pollTerminal(t, ts, wr.ID, 10*time.Second); jr.Status != api.StatusDone {
			t.Fatalf("warmup %d: %+v", i, jr)
		}
	}

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("slug never picked up the target job")
	}
	defer close(block)

	// The fast worker joins only after the straggler holds the job, so
	// the hedge lease is the only way it can receive this job.
	startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "hare"})
	jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone || jr.Worker != "hare" {
		t.Fatalf("job %+v, want done on hare via hedge", jr)
	}
	m := svc.Metrics()
	if got := m.ClusterHedged.Load(); got != 1 {
		t.Fatalf("hedged dispatches %d, want 1", got)
	}
	if got := m.ClusterRequeues.Load(); got != 0 {
		t.Fatalf("requeues %d, want 0 (hedging must not ride on lease expiry)", got)
	}
	if got := m.Completed.Load(); got != 4 {
		t.Fatalf("completed %d, want 4", got)
	}
}

// Satellite: with no spool and a finite -upload-retries budget, a
// result whose uploads all fail is dropped (and counted); the job
// still completes via lease expiry and a rerun. The worker's retry
// counts surface in the coordinator's exposition via heartbeats.
func TestUploadRetryBudgetDropsAndRetryMetrics(t *testing.T) {
	svc, _, ts := newCluster(t, service.Config{MaxAttempts: 3}, CoordinatorConfig{
		LeaseTTL:   200 * time.Millisecond,
		SweepEvery: 40 * time.Millisecond,
	})
	inj := fault.New(3)
	inj.Configure("rpc.drop:"+PathResult, fault.SiteConfig{Times: 3})
	client := &http.Client{Transport: &fault.Transport{Injector: inj}}

	w := NewWorker(WorkerConfig{
		Coordinator: ts.URL, ID: "lossy", Client: client, Run: stubRun,
		PullWait: 200 * time.Millisecond, PollInterval: 20 * time.Millisecond,
		HeartbeatEvery: 25 * time.Millisecond, UploadRetries: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	jr := pollTerminal(t, ts, sr.ID, 15*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("job %+v, want done", jr)
	}
	// First execution: both upload attempts dropped, result abandoned.
	if got := w.ResultDrops(); got != 1 {
		t.Fatalf("result drops %d, want 1", got)
	}
	if got := svc.Metrics().ClusterRequeues.Load(); got < 1 {
		t.Fatalf("requeues %d, want >= 1 (the dropped result forces a rerun)", got)
	}
	// The cumulative retry counters ride the next heartbeats into the
	// exposition.
	want := `sadprouted_cluster_retry_attempts_total{rpc="result"} 2`
	deadline := time.Now().Add(5 * time.Second)
	var text string
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text = string(body)
		if strings.Contains(text, want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("exposition never showed %q:\n%s", want, text)
}

// Satellite: the coordinator crashes right after rejecting an upload
// and re-placing the job (journaled: a running record, no terminal
// record). The next boot replays the job as queued with its attempt
// count preserved — never lost, never double-completed.
func TestRejectedJobCrashReplay(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.New(service.Config{ExternalExec: true, DataDir: dir, Run: stubRun, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(svc, CoordinatorConfig{})
	ts := httptest.NewServer(coord.Handler())

	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	job := pullJob(t, ts, "evil")
	var rr ResultResponse
	clusterRPC(t, ts, PathResult, ResultRequest{
		WorkerID: "evil", JobID: job.ID, Lease: job.Lease, Key: job.Key,
		Outcome: service.Outcome{Result: garbage}, Checksum: checksum(garbage),
	}, &rr)
	if rr.Status != ResultRejected {
		t.Fatalf("status %q, want rejected", rr.Status)
	}
	ts.Close() // crash: no Shutdown, the journal stays as-written

	svc2, err := service.New(service.Config{DataDir: dir, Run: stubRun, MaxAttempts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown(context.Background())
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	if got := svc2.Metrics().Replayed.Load(); got != 1 {
		t.Fatalf("replayed %d, want 1", got)
	}
	jr := pollTerminal(t, ts2, sr.ID, 10*time.Second)
	if jr.Status != api.StatusDone {
		t.Fatalf("replayed job %+v, want done", jr)
	}
	if got := svc2.Metrics().Completed.Load(); got != 1 {
		t.Fatalf("completed %d, want exactly 1", got)
	}
}

// The chaos differential: the byte-identity invariant must survive
// every network and worker fault class at once, with upload
// verification on. Each schedule runs the real routing flow over the
// differential suite and must match the standalone reference
// bit-for-bit.
func TestChaosSchedulesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real routing flow; skipped in -short")
	}

	sa, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sa.Handler())
	ref := runSuite(t, tsA, diffSuite(), diffSpec())
	tsA.Close()
	sa.Shutdown(context.Background())

	t.Run("latency+dup", func(t *testing.T) {
		_, _, ts := newCluster(t, service.Config{Run: service.DefaultRun, MaxAttempts: 4}, CoordinatorConfig{VerifyUploads: true})
		inj := fault.New(11)
		inj.Configure("rpc.latency:"+PathResult, fault.SiteConfig{Times: -1, Prob: 0.5})
		inj.Configure("rpc.dup:"+PathResult, fault.SiteConfig{Times: -1, Prob: 0.5})
		client := &http.Client{Transport: &fault.Transport{Injector: inj, Latency: 30 * time.Millisecond}}
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "lag1", Run: service.DefaultRun, Client: client, Slots: 2})
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "lag2", Run: service.DefaultRun, Client: client, Slots: 2})
		compareOutcomes(t, "latency+dup", ref, runSuite(t, ts, diffSuite(), diffSpec()))
	})

	t.Run("corrupt-upload", func(t *testing.T) {
		svc, _, ts := newCluster(t, service.Config{Run: service.DefaultRun, MaxAttempts: 6}, CoordinatorConfig{
			VerifyUploads: true,
			LeaseTTL:      500 * time.Millisecond,
			SweepEvery:    50 * time.Millisecond,
		})
		inj := fault.New(13)
		inj.Configure("rpc.corrupt:"+PathResult, fault.SiteConfig{Times: 2})
		client := &http.Client{Transport: &fault.Transport{Injector: inj}}
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "noisy", Run: service.DefaultRun, Client: client, Slots: 2})
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "clean", Run: service.DefaultRun, Slots: 2})
		compareOutcomes(t, "corrupt-upload", ref, runSuite(t, ts, diffSuite(), diffSpec()))
		if got := inj.Trips("rpc.corrupt:" + PathResult); got != 2 {
			t.Fatalf("corruption site trips %d, want 2", got)
		}
		if got := svc.Metrics().Completed.Load(); got != int64(len(ref)) {
			t.Fatalf("completed %d, want %d", got, len(ref))
		}
		// Corrupted bytes never became results: every stored solution
		// passed validation, and a mangled delivery shows up as either
		// a validator reject (flip landed inside the JSON) or a dropped
		// 4xx upload (flip broke the envelope) — both recover.
		if got := svc.Metrics().ClusterWorkerQuarantines.Load(); got != 0 {
			t.Fatalf("quarantines %d, want 0 (two flips are under the budget)", got)
		}
	})

	t.Run("slow+hedge", func(t *testing.T) {
		svc, _, ts := newCluster(t, service.Config{Run: service.DefaultRun, MaxAttempts: 6}, CoordinatorConfig{
			VerifyUploads:   true,
			LeaseTTL:        10 * time.Second, // hedging, not expiry, must handle the stragglers
			SweepEvery:      25 * time.Millisecond,
			HedgeMultiple:   4,
			HedgeMinSamples: 3,
		})
		inj := fault.New(17)
		inj.Configure("worker.slow", fault.SiteConfig{Times: -1, Prob: 0.5})
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "mud", Run: service.DefaultRun, Fault: inj, SlowDelay: 2 * time.Second, Slots: 2})
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "swift", Run: service.DefaultRun, Slots: 2})
		compareOutcomes(t, "slow+hedge", ref, runSuite(t, ts, diffSuite(), diffSpec()))
		if got := svc.Metrics().Completed.Load(); got != int64(len(ref)) {
			t.Fatalf("completed %d, want %d", got, len(ref))
		}
	})

	t.Run("spool-crash-restart", func(t *testing.T) {
		svc, _, ts := newCluster(t, service.Config{Run: service.DefaultRun, MaxAttempts: 4}, CoordinatorConfig{VerifyUploads: true})
		dir := t.TempDir()
		inj := fault.New(19)
		inj.Configure("spool.crash", fault.SiteConfig{Times: 1})
		stop1 := startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "phoenix", Run: service.DefaultRun, SpoolDir: dir, Fault: inj})
		ids := submitSuite(t, ts, diffSuite(), diffSpec())
		deadline := time.Now().Add(60 * time.Second)
		for inj.Trips("spool.crash") == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if inj.Trips("spool.crash") == 0 {
			t.Fatal("spool.crash site never tripped")
		}
		stop1()
		startWorker(t, WorkerConfig{Coordinator: ts.URL, ID: "phoenix", Run: service.DefaultRun, SpoolDir: dir, Slots: 2})
		compareOutcomes(t, "spool-crash-restart", ref, collectSuite(t, ts, ids))
		if got := svc.Metrics().ClusterSpoolReplays.Load(); got != 1 {
			t.Fatalf("spool replays %d, want 1", got)
		}
		if got := svc.Metrics().Completed.Load(); got != int64(len(ref)) {
			t.Fatalf("completed %d, want %d", got, len(ref))
		}
	})
}
