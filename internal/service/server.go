// Package service implements routing-as-a-service: an HTTP JSON API
// over the full paper flow (SIM/SID routing → TPL violation removal →
// post-routing DVI) with a bounded FIFO job queue, a fixed worker
// pool, a content-addressed LRU result cache, single-flighting of
// identical submissions, per-job timeouts, backpressure (429 +
// Retry-After) and graceful drain on shutdown.
//
// The fault-tolerance layer on top (see DESIGN.md §10): a durable job
// journal under Config.DataDir replays accepted work across crashes,
// worker panics are isolated per attempt and repeat offenders are
// quarantined by content address, and jobs submitted with the degrade
// option trade phase budgets for graceful fallbacks instead of
// failing. All of it is exercised deterministically through
// internal/fault injection sites.
//
// Endpoints:
//
//	POST /v1/jobs      submit {netlist, spec} → 202 {id} (200 on cache hit)
//	GET  /v1/jobs/{id} poll status; result embedded when done
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      Prometheus text counters/gauges
package service

import (
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

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service/api"
)

// RunFunc executes one job's flow. The default implementation is
// bench.RunContextArena wrapped into the api.Result schema; tests
// inject controllable stand-ins. arena is the calling worker's scratch
// arena (nil outside a worker goroutine); an implementation that uses
// it must Release the job's router back to it after converting the
// result, and must not retain the router past the call.
type RunFunc func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, arena *router.Arena) (api.Result, error)

// maxNets bounds the net count per submission: the netlist is
// user-supplied input, and the router allocates per net.
const maxNets = 200000

// Config sizes the service. Zero values take the defaults noted.
type Config struct {
	// QueueSize bounds the FIFO of accepted-but-not-started jobs
	// (default 64). Submissions beyond it are rejected with 429.
	QueueSize int
	// Workers is the routing worker pool size (default 2).
	Workers int
	// CacheSize is the result cache capacity in entries (default 128).
	CacheSize int
	// MaxStoredJobs bounds the id → job index; finished jobs are
	// evicted FIFO beyond it (default 1024).
	MaxStoredJobs int
	// JobTimeout bounds one job's flow; the deadline also caps the
	// DVI ILP time limit. Zero means no timeout. Jobs running in
	// degrade mode get phase budgets derived from it instead of a hard
	// deadline (plus a 2× hard backstop).
	JobTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 8 MiB); oversized
	// submissions are answered with 413.
	MaxBodyBytes int64
	// MaxGridCells rejects netlists whose W×H×layers exceeds it
	// (default 16M): the grid allocates per cell, and the netlist is
	// user-supplied input.
	MaxGridCells int
	// DataDir, when set, enables the durable job journal: accepted
	// jobs are WAL-logged and replayed on the next start, so queued
	// and in-flight work survives kill -9.
	DataDir string
	// MaxAttempts bounds executions of one job across panics and
	// crash-recovery re-enqueues (default 2). A job that panics on its
	// last allowed attempt is quarantined; one interrupted by crashes
	// that many times is failed as interrupted.
	MaxAttempts int
	// ExternalExec disables the in-process worker pool: accepted jobs
	// stay on the queue until another placer (the cluster coordinator)
	// takes them with TryDequeue and drives them through the same
	// dispatch seam (dispatch.go). Everything else — validation,
	// backpressure, single-flight, cache, quarantine, journal —
	// behaves identically.
	ExternalExec bool
	// Fault, when non-nil, arms the deterministic fault-injection
	// sites (journal appends, worker execution, cache operations).
	// Nil — the production configuration — makes every site a no-op.
	Fault *fault.Injector
	// Run overrides the flow (tests). Nil means the real flow.
	Run RunFunc
	// Logf, when set, receives one line per job transition.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxStoredJobs <= 0 {
		c.MaxStoredJobs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxGridCells <= 0 {
		c.MaxGridCells = 16 << 20
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.Run == nil {
		c.Run = defaultRun
	}
	return c
}

// defaultRun is the real flow: route + post-routing DVI via the bench
// harness, wrapped into the shared result schema. The router is
// released back to the worker's arena only after ResultFrom has copied
// everything the response needs, so the recycled memory can never
// alias a served result.
func defaultRun(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, arena *router.Arena) (api.Result, error) {
	row, art, err := bench.RunContextArena(ctx, nl, spec, arena)
	if err != nil {
		return api.Result{}, err
	}
	res := api.ResultFrom(spec, row, art)
	arena.Release(art.Router)
	return res, nil
}

// Server is the routing service. Create with New, mount Handler() on
// an http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	run     RunFunc
	metrics Metrics
	cache   *resultCache
	store   *jobStore
	queue   chan *job
	journal *journal
	fault   *fault.Injector

	mu          sync.Mutex
	closed      bool                // guarded by mu; no new submissions; queue is closed
	running     map[string]*job     // guarded by mu; key → queued-or-running job (single-flight)
	quarantined map[string]quarInfo // guarded by mu

	wg          sync.WaitGroup // worker pool
	inflight    atomic.Int64
	seq         atomic.Int64
	journalOnce sync.Once // closes the journal exactly once across CloseIntake/Shutdown

	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// quarInfo records a quarantined content address: the job that
// poisoned it and why, answered to any resubmission of the same
// payload.
type quarInfo struct {
	id  string
	msg string
}

// New builds the service, replays the journal when Config.DataDir is
// set (re-enqueueing interrupted work), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		run:         cfg.Run,
		fault:       cfg.Fault,
		cache:       newResultCache(cfg.CacheSize, cfg.Fault),
		store:       newJobStore(cfg.MaxStoredJobs),
		running:     make(map[string]*job),
		quarantined: make(map[string]quarInfo),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())

	var replayed []*replayedJob
	if cfg.DataDir != "" {
		jl, recs, err := openJournal(cfg.DataDir, cfg.Fault)
		if err != nil {
			return nil, err
		}
		s.journal = jl
		replayed = foldJournal(recs)
	}
	// Size the queue to hold every replayed live job even when that
	// exceeds the configured capacity: work accepted durably in a past
	// life must not be dropped by this one's backpressure limit.
	live := 0
	for _, rj := range replayed {
		if rj.status == "" {
			live++
		}
	}
	qsize := cfg.QueueSize
	if live > qsize {
		qsize = live
	}
	s.queue = make(chan *job, qsize)
	if len(replayed) > 0 {
		if err := s.recover(replayed); err != nil {
			return nil, err
		}
	}
	if !cfg.ExternalExec {
		s.startWorkers()
	}
	return s, nil
}

// recover rebuilds the store, cache, quarantine registry and queue
// from the folded journal, enforcing the attempt bound on interrupted
// jobs, then compacts the journal to the equivalent minimal record
// set.
func (s *Server) recover(jobs []*replayedJob) error {
	var maxSeq int64
	for _, rj := range jobs {
		var n int64
		if _, err := fmt.Sscanf(rj.id, "j%d-", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		j := newJob(rj.id, rj.key, nil, rj.spec)
		j.attempt = rj.attempt
		j.placement = rj.worker
		if rj.status == api.StatusDone && rj.checksum != doneChecksum(rj.id, rj.key, rj.result) {
			// Compaction keeps the verdict, so the job fails once.
			rj.status, rj.errMsg = api.StatusFailed, badDoneRecord
			s.logf("job %s: %s", rj.id, badDoneRecord)
		}
		switch rj.status {
		case api.StatusDone:
			j.finish(rj.result, false)
			if !rj.degraded && rj.epoch == ResultEpoch {
				s.cache.Add(rj.key, rj.result)
			}
		case api.StatusFailed:
			j.fail(rj.errMsg)
		case api.StatusQuarantined:
			j.quarantine(rj.errMsg)
			//sadplint:ignore lockorder recover runs from New before startWorkers and the HTTP listener; no other goroutine exists yet
			s.quarantined[rj.key] = quarInfo{id: rj.id, msg: rj.errMsg}
		default:
			// Live job: re-enqueue unless the attempt budget is spent
			// (every recorded attempt ended in a crash or panic that
			// never reached a terminal record).
			if rj.attempt >= s.cfg.MaxAttempts {
				rj.status = api.StatusFailed
				rj.errMsg = s.interrupted()
				j.fail(rj.errMsg)
				s.logf("job %s: %s", rj.id, rj.errMsg)
				s.store.Add(j)
				continue
			}
			nl, err := netlist.Read(strings.NewReader(rj.netlist))
			if err != nil {
				rj.status = api.StatusFailed
				rj.errMsg = fmt.Sprintf("interrupted: journaled submission unreadable: %v", err)
				j.fail(rj.errMsg)
				s.store.Add(j)
				continue
			}
			// A record damaged on disk may still parse; running it would
			// publish another submission's result under this key.
			if key, err := cacheKey(rj.netlist, rj.spec); err != nil || key != rj.key {
				rj.status = api.StatusFailed
				rj.errMsg = "interrupted: journaled submission does not match its content address"
				j.fail(rj.errMsg)
				s.store.Add(j)
				continue
			}
			j.nl = nl
			j.netlistText = rj.netlist
			//sadplint:ignore lockorder recover runs from New before startWorkers and the HTTP listener; no other goroutine exists yet
			s.running[rj.key] = j
			s.queue <- j
			s.metrics.Replayed.Add(1)
			s.logf("job %s replayed from journal (attempt %d/%d)", rj.id, rj.attempt+1, s.cfg.MaxAttempts)
		}
		s.store.Add(j)
	}
	if maxSeq > s.seq.Load() {
		s.seq.Store(maxSeq)
	}
	return s.journal.rewrite(compactRecords(jobs))
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Metrics exposes the counters (tests assert on them).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Shutdown drains the service: no new submissions are accepted, the
// queue is closed, and the call blocks until every accepted job has
// reached a terminal state. If ctx expires first, in-flight jobs are
// canceled (they abort at their next router iteration boundary) and
// the drain is still awaited before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.CloseIntake()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase()
		<-done
		err = ctx.Err()
	}
	s.journalOnce.Do(func() { s.journal.Close() })
	return err
}

// CloseIntake stops new submissions and closes the queue (idempotent).
// The journal stays open: the cluster coordinator calls this first,
// keeps journaling terminal transitions for jobs still on workers, and
// only then calls Shutdown.
func (s *Server) CloseIntake() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// applyDegradeDefaults fills the degrade-mode phase budgets a
// submission left unset: half the job timeout each for the TPL
// violation-removal phase and the DVI ILP, so the deadline that would
// have killed the job instead triggers the graceful fallbacks.
func (s *Server) applyDegradeDefaults(spec *bench.RunSpec) {
	if !spec.Degrade || s.cfg.JobTimeout <= 0 {
		return
	}
	if spec.ConsiderTPL && spec.TPLBudget == 0 {
		spec.TPLBudget = s.cfg.JobTimeout / 2
	}
	if spec.Method == bench.ILPDVI && spec.ILPTimeLimit == 0 {
		spec.ILPTimeLimit = s.cfg.JobTimeout / 2
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req api.SubmitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}

	// The netlist is the trust boundary: parse and validate before the
	// submission is allowed to occupy a queue slot.
	nl, err := netlist.Read(strings.NewReader(req.Netlist))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "netlist: %v", err)
		return
	}
	// The router's limits come first: they bound every dimension, so
	// the cell product below cannot overflow past the cap.
	if err := router.CheckGrid(nl.W, nl.H, nl.NumLayers); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "netlist: %v", err)
		return
	}
	if cells := nl.W * nl.H * nl.NumLayers; cells > s.cfg.MaxGridCells {
		writeError(w, http.StatusUnprocessableEntity, "netlist: grid %dx%dx%d (%d cells) exceeds limit %d",
			nl.W, nl.H, nl.NumLayers, cells, s.cfg.MaxGridCells)
		return
	}
	if len(nl.Nets) > maxNets {
		writeError(w, http.StatusUnprocessableEntity, "netlist: %d nets exceed limit %d", len(nl.Nets), maxNets)
		return
	}
	// Routing parameters are checked as the router will see them: a
	// zero block stands for the (valid) Table II defaults.
	if p := req.Spec.Params; p != (router.Params{}) {
		if err := p.Validate(); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "spec: %v", err)
			return
		}
	}
	s.applyDegradeDefaults(&req.Spec)
	key, err := cacheKey(req.Netlist, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "spec: %v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	// A quarantined content address is poison: answer with the
	// quarantine verdict instead of running it again.
	if q, ok := s.quarantined[key]; ok {
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		writeJSON(w, http.StatusOK, api.SubmitResponse{ID: q.id, Status: api.StatusQuarantined})
		return
	}
	// Single-flight: an identical submission already queued or running
	// is returned as-is instead of routing the same input twice.
	if j, ok := s.running[key]; ok {
		id, status := j.id, j.response().Status
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.metrics.Deduped.Add(1)
		writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: id, Status: status, Deduped: true})
		return
	}
	// Content-addressed cache: identical past submissions answer
	// immediately with the stored (byte-identical) result.
	if raw, ok := s.cache.Get(key); ok {
		id := s.nextID(key)
		j := newJob(id, key, nil, req.Spec)
		j.finish(raw, true)
		s.store.Add(j)
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.metrics.CacheHits.Add(1)
		writeJSON(w, http.StatusOK, api.SubmitResponse{ID: id, Status: api.StatusDone, CacheHit: true})
		return
	}
	// Capacity check before the durable accept. Workers only ever
	// shrink the queue and other producers hold s.mu, so a slot seen
	// free here cannot vanish before the send below.
	if len(s.queue) >= s.cfg.QueueSize {
		s.mu.Unlock()
		s.metrics.Rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued)", s.cfg.QueueSize)
		return
	}
	id := s.nextID(key)
	j := newJob(id, key, nl, req.Spec)
	j.netlistText = req.Netlist
	// Durability gate: a 202 promises the job survives a crash, so the
	// submit record must be on disk before the job is accepted.
	if err := s.journal.append(journalRecord{Type: recSubmit, ID: id, Key: key, Netlist: req.Netlist, Spec: &req.Spec}); err != nil {
		s.mu.Unlock()
		s.metrics.JournalErrors.Add(1)
		writeError(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	s.queue <- j
	s.running[key] = j
	s.store.Add(j)
	s.mu.Unlock()
	s.metrics.Submitted.Add(1)
	s.metrics.CacheMisses.Add(1)
	s.logf("job %s queued: ckt=%s nets=%d grid=%dx%d", id, nl.Name, len(nl.Nets), nl.W, nl.H)
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: id, Status: api.StatusQueued})
}

// nextID mints a job id: a monotonic sequence number plus a prefix of
// the content address, so operators can eyeball which jobs were the
// same input.
func (s *Server) nextID(key string) string {
	return fmt.Sprintf("j%06d-%s", s.seq.Add(1), key[:12])
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.WriteMetrics(w)
}

// WriteMetrics renders the Prometheus text exposition, sampling the
// live gauges. Exported so the cluster coordinator can compose it with
// its own cluster-scope metrics on one /metrics endpoint.
func (s *Server) WriteMetrics(w io.Writer) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	s.metrics.WritePrometheus(w, Gauges{
		QueueDepth: len(s.queue),
		Inflight:   int(s.inflight.Load()),
		CacheSize:  s.cache.Len(),
		Draining:   draining,
	})
}
