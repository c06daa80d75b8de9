package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/retrier"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service"
)

// ErrQuarantined is returned by Worker.Run when the coordinator
// answered a pull with Quarantined: this worker exceeded the
// upload-rejection budget and will never be granted work again. The
// process should exit loudly so an operator investigates.
var ErrQuarantined = errors.New("cluster: worker quarantined by coordinator (upload-rejection budget exceeded)")

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names this worker in leases, placements and metrics labels.
	ID string
	// Slots is the number of concurrent jobs (default 1). Each slot
	// owns its router arena, mirroring the standalone worker pool.
	Slots int
	// PullWait is the long-poll window sent with each pull (default
	// 2s).
	PullWait time.Duration
	// PollInterval seeds the retry backoff after failed RPCs: it is
	// the base of the capped exponential (with deterministic jitter)
	// the worker sleeps between attempts, so it rides out coordinator
	// restarts without hammering the moment they end (default 500ms).
	PollInterval time.Duration
	// HeartbeatEvery is the lease renewal period (default 1s; keep it
	// well under the coordinator's LeaseTTL).
	HeartbeatEvery time.Duration
	// SpoolDir, when set, durably stages every finished result on
	// local disk (fsynced before the first upload attempt) and replays
	// unconfirmed ones at the next Run — kill -9 between computing a
	// result and uploading it no longer loses the work.
	SpoolDir string
	// UploadRetries bounds result-upload attempts: 0 means the
	// default (5 without a spool; unbounded with one — the spool
	// already guarantees the result survives), negative means
	// unbounded.
	UploadRetries int
	// RetrySeed seeds the deterministic retry jitter (combined with
	// the worker ID, so a fleet started with one seed still
	// de-synchronizes).
	RetrySeed int64
	// SlowDelay is the extra latency the "worker.slow" chaos site
	// injects before running a job (default 1s).
	SlowDelay time.Duration
	// Fault arms the worker-side chaos sites: "worker.kill" (die
	// silently after pulling a job, before running it), "worker.slow"
	// (sleep SlowDelay before running a job), "spool.crash" (die
	// silently after spooling a result, before uploading it) and
	// "cluster.heartbeat.drop" (skip heartbeats). Wrap the Client's
	// transport in fault.Transport for network-level faults.
	Fault *fault.Injector
	// Client performs the RPCs (default http.DefaultClient with a
	// 0 timeout; long-polls rely on request contexts, not client
	// timeouts).
	Client *http.Client
	// Run overrides the flow (tests). Nil means service.DefaultRun —
	// the same function standalone workers execute.
	Run service.RunFunc
	// Logf, when set, receives one line per job transition.
	Logf func(format string, args ...interface{})
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.PullWait <= 0 {
		c.PullWait = 2 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.SlowDelay <= 0 {
		c.SlowDelay = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Run == nil {
		c.Run = service.DefaultRun
	}
	return c
}

// runningJob tracks one in-flight execution for the heartbeat loop.
// Instances are only touched inside the owning Worker's critical
// sections on its mu.
type runningJob struct {
	lease  string
	cancel context.CancelFunc
	// abandoned is set when a heartbeat learns the lease was lost; the
	// execution is canceled and its upload suppressed.
	abandoned bool
}

// Worker is the pull-based execution client. Its only durable state
// is the optional result spool: killing it at any instant loses
// nothing — unleased work stays with the coordinator's journal, and a
// spooled result replays at the next start.
type Worker struct {
	cfg WorkerConfig

	// spool is the durable result stage (nil when SpoolDir is empty).
	// It is opened in Run before any loop starts and never reassigned.
	spool *resultSpool

	// Per-RPC retry policies; their jitter streams are deterministic
	// in (worker ID, RetrySeed).
	pullR   *retrier.Retrier
	uploadR *retrier.Retrier
	hbR     *retrier.Retrier

	// Cumulative RPC retry counts, reported in heartbeats so the
	// coordinator can expose cluster_retry_attempts_total{rpc}.
	retryPull      atomic.Int64
	retryResult    atomic.Int64
	retryHeartbeat atomic.Int64
	// drops counts computed results abandoned after the upload budget
	// was spent with no spool to preserve them — the event the spool
	// exists to make impossible.
	drops atomic.Int64

	mu          sync.Mutex
	running     map[string]*runningJob // guarded by mu; job id → execution
	killed      bool                   // guarded by mu; "worker.kill"/"spool.crash" tripped, all loops exit
	quarantined bool                   // guarded by mu; the coordinator barred this worker
}

// NewWorker builds a worker client.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	w := &Worker{cfg: cfg, running: make(map[string]*runningJob)}
	base := retrier.Policy{Base: cfg.PollInterval, Cap: 10 * cfg.PollInterval}
	w.pullR = retrier.New("pull/"+cfg.ID, cfg.RetrySeed, base)
	w.uploadR = retrier.New("result/"+cfg.ID, cfg.RetrySeed, base)
	hb := base
	hb.Cap = cfg.HeartbeatEvery
	w.hbR = retrier.New("heartbeat/"+cfg.ID, cfg.RetrySeed, hb)
	return w
}

// ResultDrops reports how many computed results were abandoned after
// the upload retry budget was spent without a spool to keep them.
func (w *Worker) ResultDrops() int64 { return w.drops.Load() }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run pulls and executes jobs until ctx is canceled, the coordinator
// reports draining or quarantines the worker, or a kill-type chaos
// site trips. In-flight jobs finish and upload on graceful exits
// (drain, ctx cancel); killed workers vanish without uploading, which
// is the lease-expiry path's test harness. When a spool is
// configured, unconfirmed results from a previous life are replayed
// before any new work is pulled.
func (w *Worker) Run(ctx context.Context) error {
	sp, err := openResultSpool(w.cfg.SpoolDir)
	if err != nil {
		return err
	}
	w.spool = sp
	w.replaySpool(ctx)

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()

	var slotWG sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		slotWG.Add(1)
		go func(slot int) {
			defer slotWG.Done()
			w.slotLoop(ctx, slot)
		}(i)
	}
	slotWG.Wait()
	stopHB()
	hbWG.Wait()
	w.mu.Lock()
	quarantined := w.quarantined
	w.mu.Unlock()
	if quarantined {
		return ErrQuarantined
	}
	return ctx.Err()
}

// replaySpool re-uploads every result a previous life computed but
// never saw confirmed. The coordinator's exactly-once gate makes
// replays of already-decided jobs harmless duplicates; undecided ones
// are completed here without recomputing anything.
func (w *Worker) replaySpool(ctx context.Context) {
	reqs, skipped, err := w.spool.Pending()
	if err != nil {
		w.logf("worker %s: spool scan failed: %v", w.cfg.ID, err)
		return
	}
	for _, name := range skipped {
		w.logf("worker %s: spool entry %s unreadable, skipped", w.cfg.ID, name)
	}
	for i := range reqs {
		if ctx.Err() != nil {
			return
		}
		req := reqs[i]
		req.SpoolReplay = true
		w.logf("worker %s: replaying spooled result for job %s", w.cfg.ID, req.JobID)
		w.upload(ctx, &req)
	}
}

func (w *Worker) isKilled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killed
}

// slotLoop is one slot's pull-execute cycle.
func (w *Worker) slotLoop(ctx context.Context, slot int) {
	arena := router.NewArena()
	pullFails := 0
	for {
		if ctx.Err() != nil || w.isKilled() {
			return
		}
		resp, err := w.pull(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// The coordinator may be restarting (crash-replay e2e);
			// back off — capped exponential with deterministic jitter —
			// and keep polling.
			pullFails++
			w.retryPull.Add(1)
			w.pullR.Sleep(ctx, pullFails+1)
			continue
		}
		pullFails = 0
		if resp.Quarantined {
			w.mu.Lock()
			w.quarantined = true
			w.mu.Unlock()
			w.logf("worker %s slot %d: quarantined by coordinator, exiting", w.cfg.ID, slot)
			return
		}
		if resp.Draining {
			w.logf("worker %s slot %d: coordinator draining, exiting", w.cfg.ID, slot)
			return
		}
		if resp.Job == nil {
			continue
		}
		if ferr := w.cfg.Fault.Inject("worker.kill"); ferr != nil {
			// Simulated process death: the job was leased to us and
			// will never run; the coordinator's sweeper re-places it.
			w.mu.Lock()
			w.killed = true
			w.mu.Unlock()
			w.logf("worker %s: killed by fault injection holding job %s", w.cfg.ID, resp.Job.ID)
			return
		}
		w.execute(ctx, resp.Job, arena)
	}
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// execute runs one assignment through service.Execute and uploads the
// outcome. That is the attempt function the standalone pool runs, so
// the uploaded bytes are the bytes a standalone daemon would have
// served.
func (w *Worker) execute(ctx context.Context, job *JobAssignment, arena *router.Arena) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.running[job.ID] = &runningJob{lease: job.Lease, cancel: cancel}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.running, job.ID)
		w.mu.Unlock()
	}()

	if ferr := w.cfg.Fault.Inject("worker.slow"); ferr != nil {
		// Simulated straggler: still healthy and heartbeating, just
		// slow — the hedging sweeper's target.
		w.logf("worker %s: job %s slowed %v by fault injection", w.cfg.ID, job.ID, w.cfg.SlowDelay)
		w.sleep(jobCtx, w.cfg.SlowDelay)
	}

	req := ResultRequest{WorkerID: w.cfg.ID, JobID: job.ID, Lease: job.Lease, Key: job.Key}
	if nl, err := netlist.Read(strings.NewReader(job.Netlist)); err != nil {
		req.Error = fmt.Sprintf("netlist: %v", err)
	} else {
		timeout := time.Duration(job.TimeoutMS) * time.Millisecond
		req.Outcome = service.Execute(jobCtx, nl, job.Spec, timeout, w.cfg.Run, arena, w.cfg.Fault)
	}

	w.mu.Lock()
	abandoned := w.running[job.ID].abandoned
	w.mu.Unlock()
	if abandoned {
		// The lease is gone and the job re-placed; our outcome is
		// unwanted (an upload would be answered stale anyway).
		w.logf("worker %s: job %s abandoned, dropping result", w.cfg.ID, job.ID)
		return
	}
	if ctx.Err() != nil && req.Result == nil {
		// Shutting down: a cancellation-induced failure must not fail
		// the job on the coordinator — its lease will expire and the
		// job will be re-placed. Finished results still upload below.
		return
	}
	if req.Result != nil {
		req.Checksum = checksum(req.Result)
		// Durably stage the computed result before the first upload
		// attempt: from here on, kill -9 loses nothing.
		if serr := w.spool.Put(&req); serr != nil {
			w.logf("worker %s: %v (continuing without spool entry)", w.cfg.ID, serr)
		}
		if ferr := w.cfg.Fault.Inject("spool.crash"); ferr != nil {
			// Simulated death in the spool-to-upload window — the case
			// the spool exists for. The next Run replays this result.
			w.mu.Lock()
			w.killed = true
			w.mu.Unlock()
			w.logf("worker %s: killed by fault injection after spooling job %s", w.cfg.ID, job.ID)
			return
		}
	}
	w.upload(ctx, &req)
}

// upload posts the result with retries. Each POST runs on a detached
// 10s context so finished work still goes out during pull-loop
// shutdown, but the backoff sleeps are cancellable on the worker's ctx
// — a shutting-down worker never blocks on a dead coordinator. Any 2xx
// verdict (accepted, duplicate, stale, rejected) is terminal: the
// coordinator has decided, so the spool entry is dropped and the
// upload never retried. 4xx answers are permanent errors; everything
// else retries under the upload budget, and when the budget is spent
// the result either stays in the spool for the next life's replay or
// is counted as dropped.
func (w *Worker) upload(ctx context.Context, req *ResultRequest) {
	max := w.cfg.UploadRetries
	if max == 0 {
		if w.spool != nil {
			max = -1 // the spool guarantees the result survives; keep trying
		} else {
			max = 5
		}
	}
	for attempt := 1; ; attempt++ {
		postCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var resp ResultResponse
		err := w.post(postCtx, PathResult, req, &resp)
		cancel()
		if err == nil {
			if resp.Status == ResultRejected {
				w.logf("worker %s: job %s upload REJECTED (%s); job requeued elsewhere", w.cfg.ID, req.JobID, resp.Reason)
			} else {
				w.logf("worker %s: job %s uploaded: %s", w.cfg.ID, req.JobID, resp.Status)
			}
			w.spool.Remove(req.JobID)
			return
		}
		var herr *httpError
		if errors.As(err, &herr) && herr.code/100 == 4 {
			// The coordinator understood the request and refused it
			// (unknown job, malformed envelope); the same bytes can
			// never succeed.
			w.logf("worker %s: job %s upload permanently refused: %v", w.cfg.ID, req.JobID, err)
			w.spool.Remove(req.JobID)
			if req.Result != nil {
				w.drops.Add(1)
			}
			return
		}
		w.logf("worker %s: job %s upload failed (try %d): %v", w.cfg.ID, req.JobID, attempt, err)
		if max > 0 && attempt >= max {
			if req.Result == nil {
				return // failure report lost; the lease expiry re-places the job anyway
			}
			if w.spool != nil {
				w.logf("worker %s: job %s upload budget spent; result stays spooled for replay", w.cfg.ID, req.JobID)
			} else {
				w.drops.Add(1)
				w.logf("worker %s: job %s RESULT DROPPED after %d attempts (no spool)", w.cfg.ID, req.JobID, attempt)
			}
			return
		}
		w.retryResult.Add(1)
		if w.uploadR.Sleep(ctx, attempt+1) != nil {
			// Worker shutting down mid-backoff; the spool (if any)
			// preserves the result for the next life.
			if req.Result != nil && w.spool == nil {
				w.drops.Add(1)
			}
			return
		}
	}
}

// heartbeatLoop renews leases every HeartbeatEvery until ctx ends.
// Lost leases cancel their executions and mark them abandoned.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if w.isKilled() {
			return
		}
		if w.cfg.Fault.Inject("cluster.heartbeat.drop") != nil {
			continue // dropped on the (simulated) network
		}
		req := HeartbeatRequest{WorkerID: w.cfg.ID, Jobs: make(map[string]string)}
		w.mu.Lock()
		for id, rj := range w.running {
			if !rj.abandoned {
				req.Jobs[id] = rj.lease
			}
		}
		w.mu.Unlock()
		req.RetryAttempts = w.retrySnapshot()
		var resp HeartbeatResponse
		var err error
		// One in-tick retry: heartbeats are cheap and lease-critical,
		// but stale ones are worthless, so the budget is tight.
		for attempt := 1; attempt <= 2; attempt++ {
			hbCtx, cancel := context.WithTimeout(ctx, w.cfg.HeartbeatEvery)
			err = w.post(hbCtx, PathHeartbeat, req, &resp)
			cancel()
			if err == nil || attempt == 2 {
				break
			}
			w.retryHeartbeat.Add(1)
			if w.hbR.Sleep(ctx, attempt+1) != nil {
				return
			}
		}
		if err != nil {
			continue // partition or restart; leases expire on their own
		}
		for _, id := range resp.Lost {
			w.mu.Lock()
			rj := w.running[id]
			found := rj != nil
			if found && !rj.abandoned {
				rj.abandoned = true
				rj.cancel()
			}
			w.mu.Unlock()
			if found {
				w.logf("worker %s: lease on job %s lost, canceling", w.cfg.ID, id)
			}
		}
	}
}

// pull asks for one assignment, long-polling up to PullWait.
func (w *Worker) pull(ctx context.Context) (*PullResponse, error) {
	req := PullRequest{WorkerID: w.cfg.ID, WaitMS: int(w.cfg.PullWait / time.Millisecond)}
	// The request context outlives PullWait a little so the
	// coordinator, not the client, ends the long-poll.
	pctx, cancel := context.WithTimeout(ctx, w.cfg.PullWait+5*time.Second)
	defer cancel()
	var resp PullResponse
	if err := w.post(pctx, PathPull, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// retrySnapshot reports the cumulative per-RPC retry counters for a
// heartbeat (nil when all are zero, keeping the wire quiet).
func (w *Worker) retrySnapshot() map[string]int64 {
	m := make(map[string]int64, 3)
	if n := w.retryPull.Load(); n > 0 {
		m["pull"] = n
	}
	if n := w.retryResult.Load(); n > 0 {
		m["result"] = n
	}
	if n := w.retryHeartbeat.Load(); n > 0 {
		m["heartbeat"] = n
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// httpError is a non-2xx RPC answer; upload classifies 4xx as
// permanent (the coordinator refused, retrying the same bytes cannot
// help) and everything else as transient.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// post is the JSON RPC helper: marshal, POST, decode, surfacing
// non-2xx statuses as *httpError.
func (w *Worker) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &httpError{code: resp.StatusCode, msg: fmt.Sprintf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
