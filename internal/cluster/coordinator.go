package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/api"
)

// maxPullWait caps a pull's long-poll window.
const maxPullWait = 30 * time.Second

// maxControlBody bounds a pull or heartbeat request body, which
// arrives on the listener that also serves the public API: a pull is a
// worker id and a wait, a heartbeat one lease per slot.
const maxControlBody = 1 << 20

// resultBodyLimit bounds a result upload body, derived from the
// wrapped service's input bounds so that an honest upload of any job
// it accepts fits. An upload is the envelope (ids, lease, key,
// checksum, an error or a redacted stack) around the result: the spec
// echo, the metrics, the verify report (at most 100 violations) and
// the solution payload. All but the payload are bounded by the
// submission, MaxBodyBytes. The payload (internal/solution) spends:
//
//   - one byte per unit step and three per distinct via (its
//     redundant via's direction and two colors). A finished route is
//     congestion-free, and each search starts from its net's whole
//     tree, so steps enter each grid cell once plus once per path that
//     ends on the tree: 4·MaxGridCells, plus a byte per path;
//   - per path, an origin and a separator, at most 15 bytes with
//     14-bit tracks, so with that byte 16 bytes. Paths number at most
//     two per pin (a Steiner tree adds at most one point per pin), and
//     a pin costs the netlist at least 4 bytes ("x y "): at most
//     8·MaxBodyBytes, which also covers one ";" per net.
//
// So limit = MaxBodyBytes + 8·MaxBodyBytes + 4·MaxGridCells, rounded
// up to 10·MaxBodyBytes + 4·MaxGridCells. Honest uploads of the tiny,
// multi-pin and quarter-scale Table I circuits use 0.21–0.41 bytes per
// grid cell.
func (c *Coordinator) resultBodyLimit() int64 {
	return 10*c.svc.MaxBodyBytes() + 4*int64(c.svc.MaxGridCells())
}

// decodeRPC decodes a cluster RPC body of at most limit bytes into v,
// whose required ids point into v. It reports false once it has
// answered the request: 413, as POST /v1/jobs answers, for a larger
// body, and 400 with msg for a malformed one or an empty id. A body
// that declares a larger length is refused unread; one that does not
// is read to the limit and no further.
func decodeRPC(w http.ResponseWriter, r *http.Request, limit int64, v any, msg string, ids ...*string) bool {
	var err error = &http.MaxBytesError{Limit: limit}
	if r.ContentLength <= limit {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, api.ErrorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
	case err != nil || slices.ContainsFunc(ids, func(id *string) bool { return *id == "" }):
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: msg})
	default:
		return true
	}
	return false
}

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
	// Deprecated: ignored; every uploaded solution gets the full
	// internal/verify re-check. perfbench still names it.
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

// lease is one worker's hold on a job.
type lease struct {
	worker string
	token  string
	// expires is the lease deadline; heartbeats push it forward.
	expires time.Time
	// started stamps the placement, for the latency histogram.
	started time.Time
}

// trackedJob is the coordinator's view of one live (non-terminal)
// job. Every field, including the map, is touched only inside the
// owning Coordinator's critical sections on its mu.
type trackedJob struct {
	a *service.Assignment
	// leases are the job's live placements: index 0 the primary, index
	// 1 a hedge — hedged straggler re-dispatch, a second concurrent
	// lease on a different worker. The two race; the first valid
	// upload decides the job (determinism makes the loser's bytes
	// identical anyway) and the exactly-once terminate gate no-ops the
	// second. Dropping index 0 promotes the hedge; a job with no lease
	// is pending.
	leases []lease
	// excluded names workers blamed for losing a lease on this job
	// (expired, rejected, quarantined, a failed hedge); the grant loop
	// avoids them while another live worker exists.
	excluded map[string]bool
	// hedgeWanted marks the placement as running past the hedging
	// threshold; the grant loop turns that into a hedge lease.
	hedgeWanted bool
}

// leaseOf returns the index of the lease worker holds on t under
// token, or -1 when it holds none (expired, dropped or never granted).
func (t *trackedJob) leaseOf(worker, token string) int {
	for i, l := range t.leases {
		if l.worker == worker && l.token == token {
			return i
		}
	}
	return -1
}

// workerInfo is the liveness record of one worker.
type workerInfo struct {
	lastSeen time.Time
	// refused is set while the worker's pulls quote another result
	// epoch than the coordinator's, or none: it is granted nothing, so
	// it does not count as live, however often it heartbeats.
	refused bool
}

// Coordinator owns cluster-scope state: the lease table, the pending
// list of re-placed jobs, and worker liveness. Fresh jobs wait in the
// wrapped service.Server's bounded queue until a pull takes one, so
// the service's backpressure holds in coordinator mode too. All
// durable state stays in the service (journal, cache, single-flight,
// quarantine) — the Coordinator can crash and restart with nothing but
// the journal and reconstruct equivalent work.
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
	pending  []string               // guarded by mu; re-placed job ids awaiting a lease, FIFO
	workers  map[string]*workerInfo // guarded by mu; worker id → liveness
	leaseSeq int64                  // guarded by mu; lease token counter
	closed   bool                   // guarded by mu; Shutdown reached the drain-workers phase
	notify   chan struct{}          // guarded by mu; closed+replaced when a job may have become grantable

	// Reputation outlives workerInfo expiry on purpose: a byzantine
	// worker must not launder its rejection count by going silent
	// until the liveness record ages out.
	rejects     map[string]int              // guarded by mu; worker id → rejected uploads
	quarantined map[string]bool             // guarded by mu; workers barred from grants
	lastRetries map[string]map[string]int64 // guarded by mu; worker id → rpc → last cumulative retry count

	cancel context.CancelFunc // stops the sweeper
	wg     sync.WaitGroup
}

// NewCoordinator wraps an ExternalExec service.Server and starts the
// lease sweeper.
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
	c.wg.Add(1)
	go c.sweeper(ctx)
	return c
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
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
	for _, id := range sortedKeys(c.jobs) {
		t := c.jobs[id]
		// The hedge first: a silent hedge worker leaves the primary
		// unaffected, a silent primary's lease passes to a live hedge.
		for i := len(t.leases) - 1; i >= 0; i-- {
			if l := t.leases[i]; !now.Before(l.expires) {
				c.logf("cluster: job %s lease %d expired on %s (attempt %d/%d)", id, i, l.worker, t.a.Attempts(), c.svc.MaxAttempts())
				c.dropLeaseLocked(id, t, i, true)
			}
		}
		if hedgeAfter > 0 && len(t.leases) == 1 && !t.hedgeWanted &&
			now.Sub(t.leases[0].started) > hedgeAfter && t.a.Attempts() < c.svc.MaxAttempts() {
			t.hedgeWanted = true
			c.logf("cluster: job %s on %s running %s (> %s), hedging", id, t.leases[0].worker,
				now.Sub(t.leases[0].started).Round(time.Millisecond), hedgeAfter.Round(time.Millisecond))
			c.broadcastLocked()
		}
	}
}

// requeueLocked returns a job left with no lease to the pending list,
// or fails it when the attempt budget is spent — the same verdict as
// crash-interrupted jobs on journal replay. The next placement starts
// unhedged: only its own running time may call for a hedge. Callers
// hold mu.
func (c *Coordinator) requeueLocked(id string, t *trackedJob) {
	if t.a.Attempts() >= c.svc.MaxAttempts() {
		c.svc.FailInterrupted(t.a)
		delete(c.jobs, id)
		return
	}
	t.hedgeWanted = false
	c.svc.Requeue(t.a)
	c.pending = append(c.pending, id)
	c.broadcastLocked()
}

// dropLeaseLocked ends lease i of job id. A blamed holder — presumed
// dead or wrong: its lease expired, its upload was rejected, it was
// quarantined, or its hedge failed or panicked — is excluded from the
// job, and the requeue counted when it held the primary. Dropping the
// primary promotes a live hedge, so the job never stops running (it
// keeps hedgeWanted, so a still-slow job can be re-hedged); a job left
// with no lease is requeued. Callers hold mu.
func (c *Coordinator) dropLeaseLocked(id string, t *trackedJob, i int, blame bool) {
	if blame {
		t.excluded[t.leases[i].worker] = true
		if i == 0 {
			c.svc.Metrics().ClusterRequeues.Add(1)
		}
	}
	t.leases = append(t.leases[:i], t.leases[i+1:]...)
	switch {
	case len(t.leases) == 0:
		c.requeueLocked(id, t)
	case i == 0:
		c.logf("cluster: job %s hedge on %s promoted to primary", id, t.leases[0].worker)
	}
}

// quarantineWorkerLocked bars a worker that exhausted its rejection
// budget from all future grants and re-places everything it holds
// (primary and hedge leases alike). Callers hold mu.
func (c *Coordinator) quarantineWorkerLocked(workerID string) {
	c.quarantined[workerID] = true
	c.svc.Metrics().ClusterWorkerQuarantines.Add(1)
	c.logf("cluster: worker %s quarantined after %d rejected uploads", workerID, c.rejects[workerID])
	for _, id := range sortedKeys(c.jobs) {
		t := c.jobs[id]
		for i := len(t.leases) - 1; i >= 0; i-- {
			if t.leases[i].worker == workerID {
				c.dropLeaseLocked(id, t, i, true)
			}
		}
	}
}

// workerTTL is how long a worker counts as live after its last
// contact, for the exclusion logic and the workers gauge: two lease
// TTLs.
func (c *Coordinator) workerTTL() time.Duration { return 2 * c.cfg.LeaseTTL }

// touchWorkerLocked refreshes a worker's liveness record and returns
// it. Callers hold mu.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerInfo {
	w, ok := c.workers[id]
	if !ok {
		w = &workerInfo{}
		c.workers[id] = w
		c.logf("cluster: worker %s joined", id)
	}
	w.lastSeen = now
	return w
}

// liveLocked reports whether worker w counts as live at now: seen
// within workerTTL and not refused for its epoch. Callers hold mu.
func (c *Coordinator) liveLocked(w *workerInfo, now time.Time) bool {
	return !w.refused && now.Sub(w.lastSeen) <= c.workerTTL()
}

// otherLiveWorkerLocked reports whether a live worker besides the
// given one exists. Callers hold mu.
func (c *Coordinator) otherLiveWorkerLocked(except string, now time.Time) bool {
	for id, w := range c.workers {
		if id != except && c.liveLocked(w, now) {
			return true
		}
	}
	return false
}

// tryGrantLocked places a job on the worker and returns the
// assignment, trying in order the oldest grantable re-placed job in
// pending, the next fresh job in the service queue, and the first
// straggler, in job-id order, that the worker may hedge; it returns
// nil when nothing fits. A pending job whose excluded set names this
// worker is skipped only while another live worker could take it —
// with no alternative, granting to a previously-failed holder beats
// starving the job (the attempt bound still terminates it). A hedge
// never goes to an excluded worker or the primary's holder. Callers
// hold mu.
func (c *Coordinator) tryGrantLocked(workerID string, now time.Time) *JobAssignment {
	for i, id := range c.pending {
		t, ok := c.jobs[id]
		if !ok || len(t.leases) > 0 {
			continue // defensive: pending holds only live, unleased jobs
		}
		if t.excluded[workerID] && c.otherLiveWorkerLocked(workerID, now) {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		return c.grantLocked(t, workerID, now)
	}
	if a := c.svc.TryDequeue(); a != nil {
		t := &trackedJob{a: a, excluded: make(map[string]bool)}
		c.jobs[a.ID] = t
		return c.grantLocked(t, workerID, now)
	}
	if c.cfg.HedgeMultiple <= 0 {
		return nil
	}
	for _, id := range sortedKeys(c.jobs) {
		t := c.jobs[id]
		if !t.hedgeWanted || len(t.leases) != 1 ||
			t.leases[0].worker == workerID || t.excluded[workerID] ||
			t.a.Attempts() >= c.svc.MaxAttempts() {
			continue
		}
		c.svc.Metrics().ClusterHedged.Add(1)
		c.logf("cluster: job %s hedged on %s (primary %s)", id, workerID, t.leases[0].worker)
		return c.grantLocked(t, workerID, now)
	}
	return nil
}

// grantLocked gives the worker a new lease on t — the primary of a
// pending job or a straggler's hedge — and renders its wire
// assignment. Every placement consumes an attempt, so the journal and
// the attempt bound stay truthful. Callers hold mu.
func (c *Coordinator) grantLocked(t *trackedJob, workerID string, now time.Time) *JobAssignment {
	c.leaseSeq++
	l := lease{worker: workerID, token: fmt.Sprintf("L%08d", c.leaseSeq), expires: now.Add(c.cfg.LeaseTTL), started: now}
	t.leases = append(t.leases, l)
	return &JobAssignment{
		ID:         t.a.ID,
		Key:        t.a.Key,
		Netlist:    t.a.Netlist,
		Spec:       t.a.Spec,
		Lease:      l.token,
		Attempt:    c.svc.StartAttempt(t.a, workerID),
		LeaseTTLMS: int(c.cfg.LeaseTTL / time.Millisecond),
		TimeoutMS:  int(c.svc.JobTimeout() / time.Millisecond),
	}
}

// handlePull answers a worker's long-poll for work. A pull that quotes
// another result epoch than the coordinator's, or none, is granted
// nothing: its worker's bytes would be another generation's, cached
// under this one's content addresses. The refusal names the
// coordinator's epoch and is held as an empty long-poll is, so a
// worker too old to read it, which pulls again at once, still pulls
// only once per wait; and the refused worker stops counting as live.
func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	var req PullRequest
	if !decodeRPC(w, r, maxControlBody, &req, "bad pull request", &req.WorkerID) {
		return
	}
	var idle PullResponse // the answer when no job is granted
	if req.Epoch != service.ResultEpoch {
		idle.WantEpoch = service.ResultEpoch
		c.svc.Metrics().ClusterEpochRefusals.Add(1)
		c.logf("cluster: pull from %s refused: epoch %d, want %d", req.WorkerID, req.Epoch, service.ResultEpoch)
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > maxPullWait {
		wait = maxPullWait
	}
	deadline := time.Now().Add(wait)
	for {
		now := time.Now()
		c.mu.Lock()
		c.touchWorkerLocked(req.WorkerID, now).refused = idle.WantEpoch != 0
		if c.quarantined[req.WorkerID] {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, PullResponse{Quarantined: true})
			return
		}
		if c.closed {
			c.mu.Unlock()
			idle.Draining = true
			writeJSON(w, http.StatusOK, idle)
			return
		}
		var job *JobAssignment
		if idle.WantEpoch == 0 {
			job = c.tryGrantLocked(req.WorkerID, now)
		}
		notify := c.notify
		c.mu.Unlock()
		if job != nil {
			writeJSON(w, http.StatusOK, PullResponse{Job: job})
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			writeJSON(w, http.StatusOK, idle)
			return
		}
		wake := time.NewTimer(remaining)
		select {
		case <-notify:
			wake.Stop()
		case <-wake.C:
			writeJSON(w, http.StatusOK, idle)
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
//   - a body over resultBodyLimit → 413, as POST /v1/jobs answers;
//     nothing about the job or the lease changes;
//   - unknown job id, terminal in the store → "duplicate" (no-op);
//   - tracked job, upload that may hold another build's bytes
//     (otherEpoch: a spool replayed across an upgrade) → "stale",
//     unvalidated and without blame, since its bytes need not be the
//     ones this build's content address names. Nothing is cached or
//     journaled, and the uploader's lease, if fresh, is dropped so
//     the job is re-placed;
//   - success payloads are validated before they can decide the job:
//     structural invariants (content address, spec echo, degraded
//     flag, metric recount of the solution geometry) and the full
//     internal/verify re-check of any solution payload. A failing
//     payload is "rejected": the job is re-placed away from the
//     uploader, the uploader's reputation is charged, and past
//     RejectBudget the worker is quarantined with everything it held
//     re-placed;
//   - tracked job, fresh lease (primary or hedge), valid payload →
//     the upload decides the job;
//   - tracked job, stale/expired lease, valid success payload →
//     accepted anyway: the flow is deterministic within an epoch, so
//     the late worker's bytes equal what the rerun would produce, and
//     the exactly-once terminate gate keeps whichever lands second a
//     no-op;
//   - tracked job, stale lease, error/panic payload → "stale" no-op:
//     a presumed-dead worker must not fail a job another worker may
//     still complete; for the same reason a hedge's error or panic
//     only drops the hedge, and a primary's timeout while its hedge
//     runs only drops the primary.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeRPC(w, r, c.resultBodyLimit(), &req, "bad result request", &req.WorkerID, &req.JobID) {
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
		if i := t.leaseOf(req.WorkerID, req.Lease); otherEpoch(&req, i >= 0) {
			c.logf("cluster: job %s upload from %s quotes epoch %d, want %d: stale", req.JobID, req.WorkerID, req.Epoch, service.ResultEpoch)
			if i >= 0 {
				c.dropLeaseLocked(req.JobID, t, i, false)
			}
			c.svc.Metrics().ClusterStaleResults.Add(1)
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultStale})
			return
		}
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
		reason, vErr = validateUpload(a, &req)
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
	// i is the uploader's lease: fresh when i ≥ 0, the primary's at 0,
	// a hedge's above.
	i := t.leaseOf(req.WorkerID, req.Lease)

	if reason != "" {
		c.rejectUploadLocked(t, &req, i, reason, vErr)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultRejected, Reason: reason})
		return
	}

	switch {
	case success:
		if i < 0 {
			c.svc.Metrics().ClusterStaleResults.Add(1)
		}
		if c.svc.Complete(t.a, req.Result, req.Degraded, req.WorkerID) {
			if i >= 0 {
				c.hist.Observe(req.WorkerID, now.Sub(t.leases[i].started))
			}
			c.dropJobLocked(req.JobID)
			writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})
			return
		}
		c.svc.Metrics().ClusterDupResults.Add(1)
		c.dropJobLocked(req.JobID)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultDuplicate})

	case i < 0:
		c.svc.Metrics().ClusterStaleResults.Add(1)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultStale})

	case i > 0:
		// The hedge crashed or failed (e.g. its deadline) while the
		// primary still runs; drop the hedge and don't fail a job
		// another execution may finish.
		c.dropLeaseLocked(req.JobID, t, i, true)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})

	case req.Panic != "":
		if c.svc.Panicked(t.a, req.Panic) {
			// Re-place without exclusion: any worker may take the
			// retry, as the standalone pool retries on the same one.
			c.dropLeaseLocked(req.JobID, t, 0, false)
		} else {
			c.dropJobLocked(req.JobID)
		}
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})

	case req.Canceled && len(t.leases) > 1:
		// The primary hit the job deadline while its hedge runs. A
		// timeout, unlike a flow error, says nothing about the hedge,
		// which may still finish: drop the primary without blame and
		// promote the hedge.
		c.dropLeaseLocked(req.JobID, t, 0, false)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})

	default:
		c.svc.Fail(t.a, req.Error, req.Canceled)
		c.dropJobLocked(req.JobID)
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultAccepted})
	}
}

// otherEpoch reports whether an upload may hold another build's
// bytes: it quotes another ResultEpoch, or it quotes none and either
// replays a spool or rides a lease that is no longer fresh. A worker
// built before uploads carried the epoch still quotes it on pulls, and
// a pull is granted a lease only under this epoch, so its live upload
// on a fresh lease (fresh) is this epoch's work.
func otherEpoch(req *ResultRequest, fresh bool) bool {
	if req.Epoch == 0 {
		return req.SpoolReplay || !fresh
	}
	return req.Epoch != service.ResultEpoch
}

// rejectUploadLocked applies the consequences of a rejected upload:
// the per-reason counter, the end of the uploader's lease i (when
// fresh), the uploader's reputation charge and — past the budget —
// its quarantine. Callers hold mu.
func (c *Coordinator) rejectUploadLocked(t *trackedJob, req *ResultRequest, i int, reason string, vErr error) {
	c.svc.Metrics().ClusterUploadRejects.Add(reason, 1)
	c.logf("cluster: job %s upload from %s rejected (%s): %v", req.JobID, req.WorkerID, reason, vErr)
	if i >= 0 {
		c.dropLeaseLocked(req.JobID, t, i, true)
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
	if !decodeRPC(w, r, maxControlBody, &req, "bad heartbeat", &req.WorkerID) {
		return
	}
	now := time.Now()
	var resp HeartbeatResponse
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, now)
	for _, id := range sortedKeys(req.Jobs) {
		if t, ok := c.jobs[id]; ok {
			if i := t.leaseOf(req.WorkerID, req.Jobs[id]); i >= 0 {
				t.leases[i].expires = now.Add(c.cfg.LeaseTTL)
				resp.Renewed = append(resp.Renewed, id)
				continue
			}
		}
		resp.Lost = append(resp.Lost, id)
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
		for _, rpc := range sortedKeys(req.RetryAttempts) {
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
		if c.liveLocked(wk, now) {
			g.Workers++
		}
	}
	for _, t := range c.jobs {
		if len(t.leases) > 0 {
			g.LeasesActive++ // jobs, not leases: a hedge adds none
		}
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.svc.WriteMetrics(w)
	c.svc.Metrics().WriteCluster(w, g, c.hist)
}

// Handler returns the coordinator's routes: the cluster RPC endpoints
// plus the wrapped service's public API (whose /metrics is overridden
// by the composed cluster exposition). An accepted submission waits in
// the service queue, which only a pull drains, so POST /v1/jobs wakes
// the pull long-polls once the service has answered it.
func (c *Coordinator) Handler() http.Handler {
	api := c.svc.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathPull, c.handlePull)
	mux.HandleFunc("POST "+PathResult, c.handleResult)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		c.mu.Lock()
		c.broadcastLocked()
		c.mu.Unlock()
	})
	mux.Handle("/", api)
	return mux
}

// Shutdown drains the cluster: intake closes, already-accepted jobs
// keep being placed and collected until none remain, in the lease
// table or the service queue (workers pulling Draining exit once both
// are empty), then the sweeper stops and the wrapped service shuts
// down. If ctx expires first, live jobs simply stay in the journal as
// queued or running records — the next boot replays them as queued,
// which is the coordinator-crash story the replay tests pin down.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.svc.CloseIntake()
	wait := time.NewTicker(20 * time.Millisecond)
	defer wait.Stop()
	for {
		c.mu.Lock() // a pull moves a job from the queue to jobs under mu
		n := len(c.jobs) + c.svc.Queued()
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

// sortedKeys returns m's keys in ascending order, so that a pass over
// jobs or a worker's report decides the same way on every coordinator
// fed the same event history.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
