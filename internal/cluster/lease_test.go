package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/service"
	"repro/internal/service/api"
)

// The lease rules, one transition per case. A rig drives a coordinator
// by hand — pulls, heartbeats and uploads over HTTP, with no Worker —
// and moves lease time only through c.sweep, so a lease expires
// exactly where a case says it does.

// rigTTL is the rigs' lease TTL: long enough that no lease expires in
// real time, so only a case's own sweeps end them.
const rigTTL = time.Minute

// hedgeGap separates a primary's start from its hedge's in the
// latency cases, far beyond a response's delivery.
const hedgeGap = 250 * time.Millisecond

type leaseRig struct {
	t   *testing.T
	svc *service.Server
	c   *Coordinator
	ts  *httptest.Server
	id  string // the rig's one job
}

// newLeaseRig serves one job of four attempts on a coordinator whose
// background sweeper never runs and whose hedging threshold is 10 ms:
// one 1 ms sample puts the median in the histogram's first bucket.
func newLeaseRig(t *testing.T, cfg CoordinatorConfig) *leaseRig {
	t.Helper()
	cfg.LeaseTTL, cfg.SweepEvery = rigTTL, time.Hour
	cfg.HedgeMultiple, cfg.HedgeMinSamples = 1, 1
	svc, c, ts := newCluster(t, service.Config{MaxAttempts: 4}, cfg)
	c.hist.Observe("seed", time.Millisecond)
	sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
	return &leaseRig{t: t, svc: svc, c: c, ts: ts, id: sr.ID}
}

// pull asks once, without waiting, and returns the grant or nil.
func (r *leaseRig) pull(worker string) *JobAssignment {
	r.t.Helper()
	var pr PullResponse
	clusterRPC(r.t, r.ts, PathPull, PullRequest{WorkerID: worker}, &pr)
	return pr.Job
}

// grant pulls as worker and fails unless it is granted the rig's job
// at the given attempt.
func (r *leaseRig) grant(worker string, attempt int) *JobAssignment {
	r.t.Helper()
	j := r.pull(worker)
	if j == nil {
		r.t.Fatalf("%s granted nothing, want job %s attempt %d", worker, r.id, attempt)
	}
	if j.ID != r.id || j.Attempt != attempt {
		r.t.Fatalf("%s granted job %s attempt %d, want job %s attempt %d", worker, j.ID, j.Attempt, r.id, attempt)
	}
	return j
}

// refused fails if worker's pull is granted anything.
func (r *leaseRig) refused(worker string) {
	r.t.Helper()
	if j := r.pull(worker); j != nil {
		r.t.Fatalf("%s granted job %s attempt %d, want nothing", worker, j.ID, j.Attempt)
	}
}

// primary gives w1 the job's first placement.
func (r *leaseRig) primary() *JobAssignment {
	r.t.Helper()
	j := pullJob(r.t, r.ts, "w1")
	if j.ID != r.id || j.Attempt != 1 {
		r.t.Fatalf("w1 granted job %s attempt %d, want job %s attempt 1", j.ID, j.Attempt, r.id)
	}
	return j
}

// hedged places the primary on w1 and, once it runs past the
// threshold, a hedge on w2. A sweep at mark plus the TTL expires the
// primary but not the hedge.
func (r *leaseRig) hedged() (p, h *JobAssignment, mark time.Time) {
	r.t.Helper()
	p = r.primary()
	mark = time.Now()
	r.c.sweep(mark.Add(time.Second))
	return p, r.grant("w2", 2), mark
}

// upload sends one result under j's lease and returns the verdict.
func (r *leaseRig) upload(worker string, j *JobAssignment, out service.Outcome) string {
	r.t.Helper()
	req := ResultRequest{WorkerID: worker, JobID: j.ID, Lease: j.Lease, Key: j.Key, Outcome: out}
	if len(out.Result) > 0 {
		req.Checksum = service.Checksum(out.Result)
	}
	var rr ResultResponse
	if code := clusterRPC(r.t, r.ts, PathResult, req, &rr); code != http.StatusOK {
		r.t.Fatalf("upload from %s: status %d", worker, code)
	}
	return rr.Status
}

// finish uploads a valid result under j's lease; it must decide the job.
func (r *leaseRig) finish(worker string, j *JobAssignment) {
	r.t.Helper()
	if got := r.upload(worker, j, service.Outcome{Result: okResult(r.t)}); got != ResultAccepted {
		r.t.Fatalf("result from %s: %q, want accepted", worker, got)
	}
	if jr := pollTerminal(r.t, r.ts, r.id, 5*time.Second); jr.Status != api.StatusDone || jr.Worker != worker {
		r.t.Fatalf("job %+v, want done on %s", jr, worker)
	}
}

// renews fails unless a heartbeat from worker renews j's lease.
func (r *leaseRig) renews(worker string, j *JobAssignment) {
	r.t.Helper()
	if hb := r.heartbeat(worker, map[string]string{j.ID: j.Lease}); len(hb.Renewed) != 1 || len(hb.Lost) != 0 {
		r.t.Fatalf("heartbeat from %s: %+v, want %s renewed", worker, hb, j.ID)
	}
}

// lost fails unless a heartbeat from worker reports j's lease lost.
func (r *leaseRig) lost(worker string, j *JobAssignment) {
	r.t.Helper()
	if hb := r.heartbeat(worker, map[string]string{j.ID: j.Lease}); len(hb.Lost) != 1 || len(hb.Renewed) != 0 {
		r.t.Fatalf("heartbeat from %s: %+v, want %s lost", worker, hb, j.ID)
	}
}

func (r *leaseRig) heartbeat(worker string, jobs map[string]string) HeartbeatResponse {
	r.t.Helper()
	var hb HeartbeatResponse
	clusterRPC(r.t, r.ts, PathHeartbeat, HeartbeatRequest{WorkerID: worker, Jobs: jobs}, &hb)
	return hb
}

// status reads the job's public status.
func (r *leaseRig) status() api.JobStatus {
	r.t.Helper()
	resp, err := http.Get(r.ts.URL + "/v1/jobs/" + r.id)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr api.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		r.t.Fatal(err)
	}
	return jr.Status
}

// gauge reads one sample of the composed exposition, e.g.
// `sadprouted_cluster_leases_active` or
// `sadprouted_cluster_job_seconds_sum{worker="w2"}`; absent is "".
func (r *leaseRig) gauge(name string) string {
	r.t.Helper()
	return sample(r.t, r.ts, name)
}

// sample reads one sample of the exposition ts serves; absent is "".
func sample(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// jobSeconds is the latency the histogram holds for worker.
func (r *leaseRig) jobSeconds(worker string) (count string, sum float64) {
	r.t.Helper()
	label := fmt.Sprintf("{worker=%q}", worker)
	sum, err := strconv.ParseFloat(r.gauge("sadprouted_cluster_job_seconds_sum"+label), 64)
	if err != nil {
		r.t.Fatalf("job seconds of %s: %v", worker, err)
	}
	return r.gauge("sadprouted_cluster_job_seconds_count" + label), sum
}

// counters are the coordinator's lease-rule counters, compared whole.
type counters struct{ Requeues, Hedged, Stale, Panics, Failed, Quarantines int64 }

func (r *leaseRig) counters() counters {
	m := r.svc.Metrics()
	return counters{m.ClusterRequeues.Load(), m.ClusterHedged.Load(), m.ClusterStaleResults.Load(),
		m.Panics.Load(), m.Failed.Load(), m.ClusterWorkerQuarantines.Load()}
}

func (r *leaseRig) want(c counters) {
	r.t.Helper()
	if got := r.counters(); got != c {
		r.t.Fatalf("counters %+v, want %+v", got, c)
	}
}

// okResult is a valid upload for the rigs' job: tinyNetlist under the
// zero spec.
func okResult(t *testing.T) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(api.Result{Row: bench.Row{CKT: "t", WL: 12}})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestLeaseRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CoordinatorConfig
		run  func(t *testing.T, r *leaseRig)
	}{
		{name: "primary expiry requeues and excludes", run: func(t *testing.T, r *leaseRig) {
			p := r.primary()
			r.refused("w2") // w2 is live, and nothing calls for a hedge
			r.c.sweep(time.Now().Add(rigTTL))
			r.want(counters{Requeues: 1})
			if got := r.status(); got != api.StatusQueued {
				t.Fatalf("status %q after the expiry, want queued", got)
			}
			r.lost("w1", p)
			if got := r.upload("w1", p, service.Outcome{Error: "late"}); got != ResultStale {
				t.Fatalf("stale error upload: %q, want stale", got)
			}
			r.refused("w1") // excluded while w2 is live
			q := r.grant("w2", 2)
			r.want(counters{Requeues: 1, Stale: 1})
			r.finish("w2", q)
		}},
		{name: "requeue clears the hedge flag", run: func(t *testing.T, r *leaseRig) {
			r.primary()
			r.c.sweep(time.Now().Add(time.Second)) // past the threshold, nobody to hedge on
			r.c.sweep(time.Now().Add(rigTTL))
			q := r.grant("w2", 2)
			r.refused("w3") // the new placement has not run long yet
			r.want(counters{Requeues: 1})
			r.c.sweep(time.Now().Add(time.Second))
			r.grant("w3", 3)
			r.want(counters{Requeues: 1, Hedged: 1})
			r.finish("w2", q)
		}},
		{name: "primary expiry promotes the hedge", run: func(t *testing.T, r *leaseRig) {
			p, h, mark := r.hedged()
			r.c.sweep(mark.Add(rigTTL))
			r.want(counters{Requeues: 1, Hedged: 1})
			if got := r.status(); got != api.StatusRunning {
				t.Fatalf("status %q after the promotion, want running", got)
			}
			r.lost("w1", p)
			r.renews("w2", h)
			r.refused("w1") // excluded
			r.finish("w2", h)
			r.want(counters{Requeues: 1, Hedged: 1}) // fresh, not stale
			if n, _ := r.jobSeconds("w2"); n != "1" {
				t.Fatalf("w2 latency samples %q, want 1", n)
			}
		}},
		{name: "hedge expiry", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			mark := time.Now()
			r.renews("w1", p)
			r.c.sweep(mark.Add(rigTTL))
			r.want(counters{Hedged: 1})
			r.lost("w2", h)
			r.renews("w1", p)
			r.refused("w2")  // excluded
			r.grant("w3", 3) // the primary is still slow: hedged again
			r.finish("w1", p)
		}},
		{name: "hedge error leaves the primary running", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			if got := r.upload("w2", h, service.Outcome{Error: "deadline"}); got != ResultAccepted {
				t.Fatalf("hedge error: %q, want accepted", got)
			}
			r.want(counters{Hedged: 1})
			if got := r.status(); got != api.StatusRunning {
				t.Fatalf("status %q, want running", got)
			}
			r.lost("w2", h)
			r.renews("w1", p)
			r.refused("w2")
			r.finish("w1", p)
		}},
		{name: "hedge panic leaves the primary running", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			if got := r.upload("w2", h, service.Outcome{Panic: "boom"}); got != ResultAccepted {
				t.Fatalf("hedge panic: %q, want accepted", got)
			}
			r.want(counters{Hedged: 1}) // Panics unchanged
			r.lost("w2", h)
			r.renews("w1", p)
			r.refused("w2")
			r.finish("w1", p)
		}},
		{name: "primary panic promotes the hedge", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			if got := r.upload("w1", p, service.Outcome{Panic: "boom"}); got != ResultAccepted {
				t.Fatalf("primary panic: %q, want accepted", got)
			}
			r.want(counters{Hedged: 1, Panics: 1}) // no requeue counted
			r.lost("w1", p)
			r.renews("w2", h)
			r.grant("w1", 3) // not excluded: it may hedge the promoted lease
			r.want(counters{Hedged: 2, Panics: 1})
			r.finish("w2", h)
		}},
		{name: "primary error fails the job", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			if got := r.upload("w1", p, service.Outcome{Error: "flow error"}); got != ResultAccepted {
				t.Fatalf("primary error: %q, want accepted", got)
			}
			if jr := pollTerminal(t, r.ts, r.id, 5*time.Second); jr.Status != api.StatusFailed {
				t.Fatalf("job %+v, want failed", jr)
			}
			r.want(counters{Hedged: 1, Failed: 1})
			r.lost("w2", h)
		}},
		{name: "primary timeout promotes the hedge", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			if got := r.upload("w1", p, service.Outcome{Error: "context deadline exceeded", Canceled: true}); got != ResultAccepted {
				t.Fatalf("primary timeout: %q, want accepted", got)
			}
			r.want(counters{Hedged: 1}) // no requeue, nothing failed
			if got := r.status(); got != api.StatusRunning {
				t.Fatalf("status %q after the primary's timeout, want running", got)
			}
			r.lost("w1", p)
			r.renews("w2", h)
			r.grant("w1", 3) // not excluded: it may hedge the promoted lease
			r.finish("w2", h)
			r.want(counters{Hedged: 2})
		}},
		{name: "rejected hedge upload", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			if got := r.upload("w2", h, service.Outcome{Result: garbage}); got != ResultRejected {
				t.Fatalf("forged hedge upload: %q, want rejected", got)
			}
			r.want(counters{Hedged: 1})
			if got := r.svc.Metrics().ClusterUploadRejects.Get(rejectDecode); got != 1 {
				t.Fatalf("upload rejects{decode} %d, want 1", got)
			}
			r.lost("w2", h)
			r.renews("w1", p)
			r.refused("w2") // excluded
			r.grant("w3", 3)
			r.finish("w1", p)
		}},
		{name: "quarantine of a hedge holder", cfg: CoordinatorConfig{RejectBudget: 1}, run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			forged := *h
			forged.Lease = "L-forged" // stale: the rejects alone end no lease
			for i := 0; i < 2; i++ {
				if got := r.upload("w2", &forged, service.Outcome{Result: garbage}); got != ResultRejected {
					t.Fatalf("forged upload %d: %q, want rejected", i+1, got)
				}
			}
			r.want(counters{Hedged: 1, Quarantines: 1})
			r.lost("w2", h)
			r.renews("w1", p)
			var pr PullResponse
			clusterRPC(t, r.ts, PathPull, PullRequest{WorkerID: "w2"}, &pr)
			if !pr.Quarantined {
				t.Fatalf("w2 pull %+v, want quarantined", pr)
			}
			r.finish("w1", p)
		}},
		{name: "heartbeat renews a hedge", run: func(t *testing.T, r *leaseRig) {
			p, h, _ := r.hedged()
			mark := time.Now()
			hb := r.heartbeat("w2", map[string]string{r.id: h.Lease, "gone": "L00000000"})
			if fmt.Sprint(hb.Renewed, hb.Lost) != fmt.Sprintf("[%s] [gone]", r.id) {
				t.Fatalf("heartbeat %+v, want %s renewed and gone lost", hb, r.id)
			}
			r.renews("w1", p)
			r.c.sweep(mark.Add(rigTTL)) // both leases were renewed after mark
			r.want(counters{Hedged: 1})
			r.renews("w2", h)
			r.finish("w2", h)
			r.lost("w1", p)
		}},
		{name: "leases_active counts jobs", run: func(t *testing.T, r *leaseRig) {
			const g = "sadprouted_cluster_leases_active"
			if got := r.gauge(g); got != "0" {
				t.Fatalf("%s %q before the pull, want 0", g, got)
			}
			p := r.primary()
			if got := r.gauge(g); got != "1" {
				t.Fatalf("%s %q with a primary, want 1", g, got)
			}
			r.c.sweep(time.Now().Add(time.Second))
			r.grant("w2", 2)
			if got := r.gauge(g); got != "1" {
				t.Fatalf("%s %q with a primary and its hedge, want 1", g, got)
			}
			r.finish("w1", p)
			if got := r.gauge(g); got != "0" {
				t.Fatalf("%s %q after the job, want 0", g, got)
			}
		}},
		{name: "a deciding hedge times its own lease", run: func(t *testing.T, r *leaseRig) {
			r.primary()
			time.Sleep(hedgeGap)
			r.c.sweep(time.Now().Add(time.Second))
			hs := time.Now()
			h := r.grant("w2", 2)
			r.finish("w2", h)
			// The hedge lived less than took; timed from the primary's
			// start, the sample would also hold the gap.
			took := time.Since(hs)
			if n, sum := r.jobSeconds("w2"); n != "1" || sum > took.Seconds() {
				t.Fatalf("w2 latency: %s samples, %.3f s; want one of at most %s", n, sum, took)
			}
		}},
		{name: "a deciding primary times its own lease", run: func(t *testing.T, r *leaseRig) {
			p := r.primary()
			time.Sleep(hedgeGap)
			r.c.sweep(time.Now().Add(time.Second))
			h := r.grant("w2", 2)
			r.finish("w1", p)
			if n, sum := r.jobSeconds("w1"); n != "1" || sum < hedgeGap.Seconds() {
				t.Fatalf("w1 latency: %s samples, %.3f s; want one of at least %s", n, sum, hedgeGap)
			}
			if got := r.upload("w2", h, service.Outcome{Result: okResult(t)}); got != ResultDuplicate {
				t.Fatalf("the losing hedge's upload: %q, want duplicate", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newLeaseRig(t, tc.cfg)) })
	}
}
