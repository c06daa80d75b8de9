package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/api"
)

// maxPullWait caps a pull's long-poll window.
const maxPullWait = 30 * time.Second

// CoordinatorConfig tunes the lease machinery. Zero values take the
// defaults noted.
type CoordinatorConfig struct {
	// LeaseTTL is how long a placed job stays owned by its worker
	// without a heartbeat before the sweeper re-places it (default
	// 15s). It is also the heartbeat interval hint sent to workers.
	LeaseTTL time.Duration
	// SweepEvery is the lease/worker expiry scan period (default
	// LeaseTTL/4).
	SweepEvery time.Duration
	// VerifyUploads runs the full internal/verify re-check on every
	// uploaded solution, on top of the always-on structural
	// invariants (spec echo, content address, metric recount).
	VerifyUploads bool
	// RejectBudget is how many rejected uploads a worker may
	// accumulate before it is quarantined: never granted work again,
	// its in-flight jobs re-placed (default 3; negative means never
	// quarantine).
	RejectBudget int
	// HedgeMultiple enables hedged straggler re-dispatch: a job
	// running longer than HedgeMultiple × the fleet's median
	// job-seconds is speculatively leased to a second worker; the
	// first valid upload wins and the loser is a no-op. Zero disables
	// hedging.
	HedgeMultiple float64
	// HedgeMinSamples is how many completed jobs the latency
	// histogram needs before the median is trusted for hedging
	// (default 8).
	HedgeMinSamples int
	// Logf, when set, receives one line per cluster transition.
	Logf func(format string, args ...interface{})
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.LeaseTTL / 4
	}
	if c.RejectBudget == 0 {
		c.RejectBudget = 3
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 8
	}
	return c
}

// trackedJob is the coordinator's view of one live (non-terminal)
// job. Every field, including the map, is touched only inside the
// owning Coordinator's critical sections on its mu.
type trackedJob struct {
	a      *service.Assignment
	leased bool
	worker string // current lease holder while leased
	lease  string
	// expires is the lease deadline; heartbeats push it forward.
	expires time.Time
	// started stamps the current placement, for the latency histogram.
	started time.Time
	// excluded names workers whose lease on this job expired (or whose
	// upload of it was rejected); the grant loop avoids them while
	// another live worker exists.
	excluded map[string]bool

	// Hedged straggler re-dispatch: a second, concurrent lease on the
	// same job. hedgeWanted marks the job as running past the hedging
	// threshold; the grant loop turns that into a hedge lease on a
	// different worker. The primary and hedge race; the first valid
	// upload decides the job (determinism makes the loser's bytes
	// identical anyway) and the exactly-once terminate gate no-ops the
	// second.
	hedgeWanted  bool
	hedgeWorker  string
	hedgeLease   string
	hedgeExpires time.Time
	hedgeStarted time.Time
}

// workerInfo is the liveness record of one worker.
type workerInfo struct {
	lastSeen time.Time
}

// Coordinator owns cluster-scope state: the lease table, the pending
// queue of unplaced assignments, and worker liveness. All durable
// state stays in the wrapped service.Server (journal, cache,
// single-flight, quarantine) — the Coordinator can crash and restart
// with nothing but the journal and reconstruct equivalent work.
//
// Lock ordering: mu is the outermost lock; the service's own locks
// and the journal's are acquired inside it (never the reverse — the
// service never calls back into the Coordinator).
type Coordinator struct {
	svc  *service.Server
	cfg  CoordinatorConfig
	hist *service.LatencyHist

	mu       sync.Mutex
	jobs     map[string]*trackedJob // guarded by mu; job id → live job
	pending  []string               // guarded by mu; unplaced job ids, FIFO
	workers  map[string]*workerInfo // guarded by mu; worker id → liveness
	leaseSeq int64                  // guarded by mu; lease token counter
	closed   bool                   // guarded by mu; Shutdown reached the drain-workers phase
	notify   chan struct{}          // guarded by mu; closed+replaced when pending grows

	// Reputation outlives workerInfo expiry on purpose: a byzantine
	// worker must not launder its rejection count by going silent
	// until the liveness record ages out.
	rejects     map[string]int              // guarded by mu; worker id → rejected uploads
	quarantined map[string]bool             // guarded by mu; workers barred from grants
	lastRetries map[string]map[string]int64 // guarded by mu; worker id → rpc → last cumulative retry count

	cancel context.CancelFunc // stops pump and sweeper
	wg     sync.WaitGroup
}

// NewCoordinator wraps an ExternalExec service.Server and starts the
// dequeue pump and the lease sweeper.
func NewCoordinator(svc *service.Server, cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		svc:         svc,
		cfg:         cfg.withDefaults(),
		hist:        service.NewLatencyHist(),
		jobs:        make(map[string]*trackedJob),
		workers:     make(map[string]*workerInfo),
		rejects:     make(map[string]int),
		quarantined: make(map[string]bool),
		lastRetries: make(map[string]map[string]int64),
		notify:      make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(2)
	go c.pump(ctx)
	go c.sweeper(ctx)
	return c
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// pump moves accepted jobs from the service queue into the cluster
// pending list. It exits on drain (CloseIntake + queue empty) or stop.
func (c *Coordinator) pump(ctx context.Context) {
	defer c.wg.Done()
	for {
		a, err := c.svc.Dequeue(ctx)
		if err != nil {
			return // ErrDraining or ctx canceled
		}
		c.mu.Lock()
		c.jobs[a.ID] = &trackedJob{a: a, excluded: make(map[string]bool)}
		c.pending = append(c.pending, a.ID)
		c.broadcastLocked()
		c.mu.Unlock()
	}
}

// broadcastLocked wakes every pull long-poller. Callers hold mu.
func (c *Coordinator) broadcastLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// sweeper periodically expires silent workers and re-places jobs
// whose leases ran out.
func (c *Coordinator) sweeper(ctx context.Context) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		c.sweep(time.Now())
	}
}

// sweep is one expiry pass. Iteration is in sorted id order so two
// coordinators fed the same event history make the same decisions.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.workerTTL() {
			delete(c.workers, id)
			c.logf("cluster: worker %s expired (last seen %s ago)", id, now.Sub(w.lastSeen).Round(time.Millisecond))
		}
	}
	// The hedging threshold: a leased job running past HedgeMultiple ×
	// the fleet's median job-seconds qualifies for a second lease. The
	// median comes from the same per-worker latency histogram /metrics
	// exposes, once enough samples back it.
	var hedgeAfter time.Duration
	if c.cfg.HedgeMultiple > 0 {
		if med, n := c.hist.Quantile(0.5); n >= int64(c.cfg.HedgeMinSamples) && med > 0 {
			hedgeAfter = time.Duration(c.cfg.HedgeMultiple * med * float64(time.Second))
		}
	}
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := c.jobs[id]
		if t.hedgeLease != "" && !now.Before(t.hedgeExpires) {
			// The hedge worker went silent; the primary is unaffected.
			c.logf("cluster: job %s hedge lease expired on %s", id, t.hedgeWorker)
			c.dropHedgeLocked(t)
		}
		if t.leased && !now.Before(t.expires) {
			c.logf("cluster: job %s lease expired on %s (attempt %d/%d)", id, t.worker, t.a.Attempts(), c.svc.MaxAttempts())
			c.dropPrimaryLocked(id, t)
			continue
		}
		if hedgeAfter > 0 && t.leased && !t.hedgeWanted && t.hedgeLease == "" &&
			now.Sub(t.started) > hedgeAfter && t.a.Attempts() < c.svc.MaxAttempts() {
			t.hedgeWanted = true
			c.logf("cluster: job %s on %s running %s (> %s), hedging", id, t.worker,
				now.Sub(t.started).Round(time.Millisecond), hedgeAfter.Round(time.Millisecond))
			c.broadcastLocked()
		}
	}
}

// requeueLocked returns a job whose lease fields are already cleared
// to the pending list, or fails it when the attempt budget is spent —
// the same verdict as crash-interrupted jobs on journal replay.
// Callers hold mu.
func (c *Coordinator) requeueLocked(id string, t *trackedJob) {
	if t.a.Attempts() >= c.svc.MaxAttempts() {
		c.svc.FailInterrupted(t.a)
		delete(c.jobs, id)
		return
	}
	c.svc.Requeue(t.a)
	c.pending = append(c.pending, id)
	c.broadcastLocked()
}

// dropPrimaryLocked takes a job's primary lease from a holder presumed
// dead or wrong (lease expired, upload rejected, worker quarantined):
// the holder is excluded from the job and the requeue counted, then a
// live hedge is promoted — the job never stops running — or the job is
// requeued. Callers hold mu.
func (c *Coordinator) dropPrimaryLocked(id string, t *trackedJob) {
	t.excluded[t.worker] = true
	c.svc.Metrics().ClusterRequeues.Add(1)
	c.releasePrimaryLocked(id, t)
}

// releasePrimaryLocked clears a job's primary lease and promotes its
// live hedge or requeues it. Callers hold mu.
func (c *Coordinator) releasePrimaryLocked(id string, t *trackedJob) {
	t.leased = false
	t.worker = ""
	t.lease = ""
	if t.hedgeLease != "" {
		c.promoteHedgeLocked(id, t)
		return
	}
	c.requeueLocked(id, t)
}

// dropHedgeLocked takes a job's hedge lease from its holder and
// excludes the holder from the job; the primary runs on. Callers hold
// mu.
func (c *Coordinator) dropHedgeLocked(t *trackedJob) {
	t.excluded[t.hedgeWorker] = true
	c.clearHedgeLocked(t)
}

// clearHedgeLocked drops a job's hedge lease (keeping hedgeWanted, so
// a still-slow primary can be re-hedged). Callers hold mu.
func (c *Coordinator) clearHedgeLocked(t *trackedJob) {
	t.hedgeWorker = ""
	t.hedgeLease = ""
	t.hedgeExpires = time.Time{}
	t.hedgeStarted = time.Time{}
}

// promoteHedgeLocked makes a job's live hedge lease its primary after
// the original holder died or was rejected. Callers hold mu.
func (c *Coordinator) promoteHedgeLocked(id string, t *trackedJob) {
	t.leased = true
	t.worker = t.hedgeWorker
	t.lease = t.hedgeLease
	t.expires = t.hedgeExpires
	t.started = t.hedgeStarted
	c.clearHedgeLocked(t)
	c.logf("cluster: job %s hedge on %s promoted to primary", id, t.worker)
}

// quarantineWorkerLocked bars a worker that exhausted its rejection
// budget from all future grants and re-places everything it holds
// (primary and hedge leases alike). Callers hold mu.
func (c *Coordinator) quarantineWorkerLocked(workerID string) {
	c.quarantined[workerID] = true
	c.svc.Metrics().ClusterWorkerQuarantines.Add(1)
	c.logf("cluster: worker %s quarantined after %d rejected uploads", workerID, c.rejects[workerID])
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := c.jobs[id]
		if t.hedgeLease != "" && t.hedgeWorker == workerID {
			c.dropHedgeLocked(t)
		}
		if t.leased && t.worker == workerID {
			c.dropPrimaryLocked(id, t)
		}
	}
}

// workerTTL is how long a worker counts as live after its last
// contact, for the exclusion logic and the workers gauge: two lease
// TTLs.
func (c *Coordinator) workerTTL() time.Duration { return 2 * c.cfg.LeaseTTL }

// touchWorkerLocked refreshes a worker's liveness. Callers hold mu.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) {
	w, ok := c.workers[id]
	if !ok {
		w = &workerInfo{}
		c.workers[id] = w
		c.logf("cluster: worker %s joined", id)
	}
	w.lastSeen = now
}

// otherLiveWorkerLocked reports whether a live worker besides the
// given one exists. Callers hold mu.
func (c *Coordinator) otherLiveWorkerLocked(except string, now time.Time) bool {
	for id, w := range c.workers {
		if id != except && now.Sub(w.lastSeen) <= c.workerTTL() {
			return true
		}
	}
	return false
}

// tryGrantLocked places the oldest grantable pending job on the
// worker and returns the assignment, or nil when nothing fits. A job
// whose excluded set names this worker is skipped only while another
// live worker could take it — with no alternative, granting to a
// previously-failed holder beats starving the job (the attempt bound
// still terminates it). Callers hold mu.
func (c *Coordinator) tryGrantLocked(workerID string, now time.Time) *JobAssignment {
	for i, id := range c.pending {
		t, ok := c.jobs[id]
		if !ok || t.leased {
			continue // stale pending entry; compacted below
		}
		if t.excluded[workerID] && c.otherLiveWorkerLocked(workerID, now) {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.leaseSeq++
		t.leased = true
		t.worker = workerID
		t.lease = fmt.Sprintf("L%08d", c.leaseSeq)
		t.expires = now.Add(c.cfg.LeaseTTL)
		t.started = now
		attempt := c.svc.StartAttempt(t.a, workerID)
		return c.assignmentLocked(t, t.lease, attempt)
	}
	return c.tryGrantHedgeLocked(workerID, now)
}

// tryGrantHedgeLocked places a hedge lease: a second concurrent
// execution of a job the sweeper flagged as a straggler, on a worker
// other than the current holder. Consumes an attempt like any other
// placement, so the journal and the attempt bound stay truthful.
// Callers hold mu.
func (c *Coordinator) tryGrantHedgeLocked(workerID string, now time.Time) *JobAssignment {
	if c.cfg.HedgeMultiple <= 0 {
		return nil
	}
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := c.jobs[id]
		if !t.hedgeWanted || !t.leased || t.hedgeLease != "" ||
			t.worker == workerID || t.excluded[workerID] ||
			t.a.Attempts() >= c.svc.MaxAttempts() {
			continue
		}
		c.leaseSeq++
		t.hedgeWorker = workerID
		t.hedgeLease = fmt.Sprintf("L%08d", c.leaseSeq)
		t.hedgeExpires = now.Add(c.cfg.LeaseTTL)
		t.hedgeStarted = now
		attempt := c.svc.StartAttempt(t.a, workerID)
		c.svc.Metrics().ClusterHedged.Add(1)
		c.logf("cluster: job %s hedged on %s (primary %s)", id, workerID, t.worker)
		return c.assignmentLocked(t, t.hedgeLease, attempt)
	}
	return nil
}

// assignmentLocked renders the wire assignment for one granted lease.
// Callers hold mu.
func (c *Coordinator) assignmentLocked(t *trackedJob, lease string, attempt int) *JobAssignment {
	return &JobAssignment{
		ID:         t.a.ID,
		Key:        t.a.Key,
		Netlist:    t.a.Netlist,
		Spec:       t.a.Spec,
		Lease:      lease,
		Attempt:    attempt,
		LeaseTTLMS: int(c.cfg.LeaseTTL / time.Millisecond),
		TimeoutMS:  int(c.svc.JobTimeout() / time.Millisecond),
	}
}

// handlePull answers a worker's long-poll for work.
func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	var req PullRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "bad pull request"})
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > maxPullWait {
		wait = maxPullWait
	}
	deadline := time.Now().Add(wait)
	for {
		now := time.Now()
		c.mu.Lock()
		c.touchWorkerLocked(req.WorkerID, now)
		if c.quarantined[req.WorkerID] {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, PullResponse{Quarantined: true})
			return
		}
		if c.closed {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, PullResponse{Draining: true})
			return
		}
		job := c.tryGrantLocked(req.WorkerID, now)
		notify := c.notify
		c.mu.Unlock()
		if job != nil {
			writeJSON(w, http.StatusOK, PullResponse{Job: job})
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			writeJSON(w, http.StatusOK, PullResponse{})
			return
		}
		wake := time.NewTimer(remaining)
		select {
		case <-notify:
			wake.Stop()
		case <-wake.C:
			writeJSON(w, http.StatusOK, PullResponse{})
			return
		case <-r.Context().Done():
			wake.Stop()
			return
		}
	}
}

// handleResult ingests one uploaded result. The contract is
// idempotent, safe under stale leases, and — new with verified
// uploads — trustless toward workers:
//
//   - unknown job id, terminal in the store → "duplicate" (no-op);
//   - success payloads are validated before they can decide the job:
//     structural invariants always (content address, spec echo,
//     degraded flag, metric recount of the solution geometry), the
//     full internal/verify re-check when VerifyUploads is set. A
//     failing payload is "rejected": the job is re-placed away from
//     the uploader, the uploader's reputation is charged, and past
//     RejectBudget the worker is quarantined with everything it held
//     re-placed;
//   - tracked job, fresh lease (primary or hedge), valid payload →
//     the upload decides the job;
//   - tracked job, stale/expired lease, valid success payload →
//     accepted anyway: the flow is deterministic, so the late
//     worker's bytes equal what the rerun would produce, and the
//     exactly-once terminate gate keeps whichever lands second a
//     no-op;
//   - tracked job, stale lease, error/panic payload → "stale" no-op:
//     a presumed-dead worker must not fail a job another worker may
//     still complete.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" || req.JobID == "" {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "bad result request"})
		return
	}
	now := time.Now()
	success := len(req.Result) > 0 && req.Error == "" && req.Panic == ""
	if req.SpoolReplay {
		c.svc.Metrics().ClusterSpoolReplays.Add(1)
	}

	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, now)
	t, tracked := c.jobs[req.JobID]
	var a *service.Assignment
	if tracked {
		a = t.a
	}
	c.mu.Unlock()
	if !tracked {
		if resp, ok := c.svc.Lookup(req.JobID); ok && isTerminal(resp.Status) {
			c.svc.Metrics().ClusterDupResults.Add(1)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultDuplicate})
			return
		}
		writeJSON(w, http.StatusNotFound, api.ErrorResponse{Error: fmt.Sprintf("no live job %q", req.JobID)})
		return
	}

	// Validate outside the lock: the full verify re-check re-colors
	// via layers and must not stall pulls and heartbeats. The job
	// fields it needs are immutable, and the decision below re-checks
	// the tracking state after relocking.
	reason := ""
	var vErr error
	//sadplint:ignore lockorder deliberate unlock-validate-relock: a's fields are immutable and the decision re-checks tracking state after relocking
	if req.Key != a.Key {
		reason, vErr = rejectContentAddress, fmt.Errorf("upload quotes key %.12s, job is %.12s", req.Key, a.Key)
	} else if success {
		reason, vErr = validateUpload(a, &req, c.cfg.VerifyUploads)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	t, tracked = c.jobs[req.JobID]
	if !tracked {
		// The job went terminal while this upload was being validated.
		c.svc.Metrics().ClusterDupResults.Add(1)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultDuplicate})
		return
	}
	freshPrimary := t.leased && t.lease == req.Lease && t.worker == req.WorkerID
	freshHedge := t.hedgeLease != "" && t.hedgeLease == req.Lease && t.hedgeWorker == req.WorkerID
	fresh := freshPrimary || freshHedge

	if reason != "" {
		c.rejectUploadLocked(t, &req, freshPrimary, freshHedge, reason, vErr)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultRejected, Reason: reason})
		return
	}

	switch {
	case success:
		if !fresh {
			c.svc.Metrics().ClusterStaleResults.Add(1)
		}
		if c.svc.Complete(t.a, req.Result, req.Degraded, req.WorkerID) {
			if freshHedge {
				c.hist.Observe(req.WorkerID, now.Sub(t.hedgeStarted))
			} else if freshPrimary {
				c.hist.Observe(req.WorkerID, now.Sub(t.started))
			}
			c.dropJobLocked(req.JobID)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})
			return
		}
		c.svc.Metrics().ClusterDupResults.Add(1)
		c.dropJobLocked(req.JobID)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultDuplicate})

	case req.Panic != "":
		if !fresh {
			c.svc.Metrics().ClusterStaleResults.Add(1)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultStale})
			return
		}
		if freshHedge {
			// The hedge crashed; the primary is still running — drop
			// the hedge and let the job be.
			c.dropHedgeLocked(t)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})
			return
		}
		if c.svc.Panicked(t.a, req.Panic) {
			// Re-place without exclusion: any worker may take the
			// retry, as the standalone pool retries on the same one.
			c.releasePrimaryLocked(req.JobID, t)
		} else {
			c.dropJobLocked(req.JobID)
		}
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})

	default:
		if !fresh {
			c.svc.Metrics().ClusterStaleResults.Add(1)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultStale})
			return
		}
		if freshHedge && t.leased {
			// The hedge failed (e.g. its deadline) while the primary
			// still runs; don't fail a job another execution may finish.
			c.dropHedgeLocked(t)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})
			return
		}
		c.svc.Fail(t.a, req.Error, req.Canceled)
		c.dropJobLocked(req.JobID)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})
	}
}

// rejectUploadLocked applies the consequences of a rejected upload:
// the per-reason counter, the job's re-placement away from the
// uploader, the uploader's reputation charge and — past the budget —
// its quarantine. Callers hold mu.
func (c *Coordinator) rejectUploadLocked(t *trackedJob, req *ResultRequest, freshPrimary, freshHedge bool, reason string, vErr error) {
	c.svc.Metrics().ClusterUploadRejects.Add(reason, 1)
	c.logf("cluster: job %s upload from %s rejected (%s): %v", req.JobID, req.WorkerID, reason, vErr)
	if freshPrimary {
		c.dropPrimaryLocked(req.JobID, t)
	} else if freshHedge {
		c.dropHedgeLocked(t)
	}
	c.rejects[req.WorkerID]++
	if c.cfg.RejectBudget >= 0 && c.rejects[req.WorkerID] > c.cfg.RejectBudget && !c.quarantined[req.WorkerID] {
		c.quarantineWorkerLocked(req.WorkerID)
	}
}

// dropJobLocked removes a now-terminal job from the lease table and
// the pending list. Callers hold mu.
func (c *Coordinator) dropJobLocked(id string) {
	delete(c.jobs, id)
	for i, pid := range c.pending {
		if pid == id {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
}

// handleHeartbeat renews the worker's leases and reports the ones it
// no longer holds so it can cancel those executions.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "bad heartbeat"})
		return
	}
	now := time.Now()
	var resp HeartbeatResponse
	ids := make([]string, 0, len(req.Jobs))
	for id := range req.Jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, now)
	for _, id := range ids {
		t, ok := c.jobs[id]
		switch {
		case ok && t.leased && t.worker == req.WorkerID && t.lease == req.Jobs[id]:
			t.expires = now.Add(c.cfg.LeaseTTL)
			resp.Renewed = append(resp.Renewed, id)
		case ok && t.hedgeLease != "" && t.hedgeWorker == req.WorkerID && t.hedgeLease == req.Jobs[id]:
			t.hedgeExpires = now.Add(c.cfg.LeaseTTL)
			resp.Renewed = append(resp.Renewed, id)
		default:
			resp.Lost = append(resp.Lost, id)
		}
	}
	// Fold the worker's cumulative retry counters into the cluster
	// exposition as deltas. A count below the last seen one means the
	// worker restarted and its counters reset; the new total is all
	// delta.
	if len(req.RetryAttempts) > 0 {
		last := c.lastRetries[req.WorkerID]
		if last == nil {
			last = make(map[string]int64)
			c.lastRetries[req.WorkerID] = last
		}
		rpcs := make([]string, 0, len(req.RetryAttempts))
		for rpc := range req.RetryAttempts {
			rpcs = append(rpcs, rpc)
		}
		sort.Strings(rpcs)
		for _, rpc := range rpcs {
			n := req.RetryAttempts[rpc]
			prev := last[rpc]
			if n < prev {
				prev = 0
			}
			if n > prev {
				c.svc.Metrics().ClusterRetryAttempts.Add(rpc, n-prev)
			}
			last[rpc] = n
		}
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics composes the service exposition with the
// cluster-scope counters, gauges and per-worker latency histogram.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	g := service.ClusterGauges{}
	for _, wk := range c.workers {
		if now.Sub(wk.lastSeen) <= c.workerTTL() {
			g.Workers++
		}
	}
	for _, t := range c.jobs {
		if t.leased {
			g.LeasesActive++
		}
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.svc.WriteMetrics(w)
	c.svc.Metrics().WriteCluster(w, g, c.hist)
}

// Handler returns the coordinator's routes: the cluster RPC endpoints
// plus the wrapped service's public API (whose /metrics is overridden
// by the composed cluster exposition).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathPull, c.handlePull)
	mux.HandleFunc("POST "+PathResult, c.handleResult)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.Handle("/", c.svc.Handler())
	return mux
}

// Shutdown drains the cluster: intake closes, already-accepted jobs
// keep being placed and collected until none remain (workers pulling
// Draining exit once the queue is empty), then the pump/sweeper stop
// and the wrapped service shuts down. If ctx expires first, live jobs
// simply stay in the journal as running records — the next boot
// replays them as queued, which is the coordinator-crash story the
// replay tests pin down.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.svc.CloseIntake()
	wait := time.NewTicker(20 * time.Millisecond)
	defer wait.Stop()
	for {
		c.mu.Lock()
		n := len(c.jobs)
		c.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			goto stop
		case <-wait.C:
		}
	}
stop:
	c.cancel()
	c.mu.Lock()
	c.closed = true
	c.broadcastLocked()
	c.mu.Unlock()
	c.wg.Wait()
	return c.svc.Shutdown(ctx)
}

func isTerminal(s api.JobStatus) bool {
	switch s {
	case api.StatusDone, api.StatusFailed, api.StatusQuarantined:
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
