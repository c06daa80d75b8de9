package service

import (
	"encoding/json"
	"sync"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/service/api"
)

// job is one submission's lifecycle record. The immutable identity
// fields are set at creation; the mutable state is guarded by mu. The
// first terminal transition to claim the job wins and later ones are
// no-ops, so concurrent completions (e.g. a worker result racing a
// lease-expiry sweep) cannot double-close done or tear the
// status/result pair; done closes when the winner publishes.
type job struct {
	id   string
	key  string // content address (cacheKey)
	nl   *netlist.Netlist
	spec bench.RunSpec
	// netlistText is retained only on journaled jobs: the journal
	// replays it on restart to re-run interrupted work.
	netlistText string

	mu     sync.Mutex
	status api.JobStatus // guarded by mu
	errMsg string        // guarded by mu
	// placement names the cluster worker the job was last placed on
	// (coordinator mode; empty for in-process execution). guarded by mu
	placement string
	result    json.RawMessage // guarded by mu
	cacheHit  bool            // guarded by mu
	terminal  bool            // guarded by mu; set by claim, before publish
	// attempt counts executions of this job (1 on the first run); it
	// survives restarts via the journal's running records and bounds
	// both panic retries and crash-recovery re-enqueues. guarded by mu
	attempt int

	done chan struct{}
}

func newJob(id, key string, nl *netlist.Netlist, spec bench.RunSpec) *job {
	return &job{id: id, key: key, nl: nl, spec: spec, status: api.StatusQueued, done: make(chan struct{})}
}

func (j *job) setRunning() {
	j.mu.Lock()
	if !j.terminal {
		j.status = api.StatusRunning
	}
	j.mu.Unlock()
}

// setQueued returns a live job to the queued state (cluster requeue
// after a lease expiry).
func (j *job) setQueued() {
	j.mu.Lock()
	if !j.terminal {
		j.status = api.StatusQueued
	}
	j.mu.Unlock()
}

// setPlacement records which cluster worker holds the job.
func (j *job) setPlacement(worker string) {
	j.mu.Lock()
	j.placement = worker
	j.mu.Unlock()
}

// beginAttempt bumps the attempt counter and returns its new value.
func (j *job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempt++
	return j.attempt
}

func (j *job) attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// claim wins the job's terminal transition, exactly once. The job
// still reads as before (queued or running) until publish: the caller
// makes the transition durable in between. It reports whether this
// call won.
func (j *job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal {
		return false
	}
	j.terminal = true
	return true
}

// publish makes a claimed terminal state visible and wakes waiters. It
// sets every terminal field under one lock acquisition, so a
// concurrent response() never observes a torn status/result pair. A
// non-empty placement names the worker that decided the job.
func (j *job) publish(status api.JobStatus, result json.RawMessage, errMsg, placement string, cacheHit bool) {
	j.mu.Lock()
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.cacheHit = cacheHit
	if placement != "" {
		j.placement = placement
	}
	j.mu.Unlock()
	close(j.done)
}

// terminate claims and publishes in one step, for transitions with
// nothing to make durable: journal replay and cache hits.
func (j *job) terminate(status api.JobStatus, result json.RawMessage, errMsg string, cacheHit bool) bool {
	if !j.claim() {
		return false
	}
	j.publish(status, result, errMsg, "", cacheHit)
	return true
}

// finish records a successful result and wakes waiters.
func (j *job) finish(result json.RawMessage, cacheHit bool) bool {
	return j.terminate(api.StatusDone, result, "", cacheHit)
}

// fail records a terminal error and wakes waiters.
func (j *job) fail(msg string) bool {
	return j.terminate(api.StatusFailed, nil, msg, false)
}

// quarantine marks the job as poisonous: it crashed repeatedly and
// will not be retried.
func (j *job) quarantine(msg string) bool {
	return j.terminate(api.StatusQuarantined, nil, msg, false)
}

func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// response snapshots the job as the wire JobResponse.
func (j *job) response() api.JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobResponse{
		ID:       j.id,
		Status:   j.status,
		Worker:   j.placement,
		Error:    j.errMsg,
		CacheHit: j.cacheHit,
		Result:   j.result,
	}
}

// jobStore is the id → job index with FIFO eviction of *finished*
// jobs beyond max, so an unbounded stream of submissions cannot grow
// memory without bound while live jobs are never dropped.
type jobStore struct {
	mu    sync.Mutex
	max   int
	jobs  map[string]*job // guarded by mu
	order []string        // guarded by mu; insertion order, for eviction scans
}

func newJobStore(max int) *jobStore {
	return &jobStore{max: max, jobs: make(map[string]*job)}
}

func (s *jobStore) Add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.jobs) <= s.max {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.max
	for _, id := range s.order {
		if excess > 0 {
			if jj, ok := s.jobs[id]; ok && jj.finished() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *jobStore) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}
