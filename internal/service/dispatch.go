package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/service/api"
)

// The dispatch seam is the one job lifecycle. Every accepted job is
// driven by a placer through the same calls: Dequeue hands it out as
// an Assignment, StartAttempt records each execution, Execute runs it,
// and Complete, Fail or Panicked decide it. There are two placers: the
// in-process worker pool (startWorkers), and the cluster coordinator
// when Config.ExternalExec is set, which runs Execute on remote workers
// and keeps validation, single-flight, cache, quarantine registry and
// journal here. Every terminal transition passes the exactly-once
// job.claim gate, which is what makes duplicate result uploads and
// stale-lease races safe: the first terminal transition wins, later
// ones report false and change nothing.

// ErrDraining is returned by Dequeue once intake has been closed and
// the queue fully drained: no further assignments will ever arrive.
var ErrDraining = errors.New("service: draining, job queue closed")

// DefaultRun is the real routing flow (route → TPL → DVI wrapped into
// the api.Result schema). Every placer hands it to Execute, which is
// half of the byte-identical-across-topologies argument (the other
// half is the deterministic router itself).
var DefaultRun RunFunc = defaultRun

// Assignment is one dequeued job handed to a placer. The identity
// fields are immutable copies; the handle back to the job is private
// so placers can only move it through the Server's exactly-once
// transitions.
type Assignment struct {
	ID  string
	Key string
	// Netlist is the submission text, re-parsed by the cluster worker
	// that executes the job (the coordinator never ships
	// *netlist.Netlist pointers across the wire).
	Netlist string
	Spec    bench.RunSpec

	j *job
}

// Attempts returns how many executions the job has consumed so far
// (across panics, crashes and lease expiries — the journal preserves
// the count over coordinator restarts).
func (a *Assignment) Attempts() int { return a.j.attempts() }

// MaxAttempts exposes the configured per-job attempt bound.
func (s *Server) MaxAttempts() int { return s.cfg.MaxAttempts }

// JobTimeout exposes the configured per-job deadline (zero = none).
func (s *Server) JobTimeout() time.Duration { return s.cfg.JobTimeout }

// MaxBodyBytes exposes the submission body bound.
func (s *Server) MaxBodyBytes() int64 { return s.cfg.MaxBodyBytes }

// MaxGridCells exposes the submitted grid's cell bound.
func (s *Server) MaxGridCells() int { return s.cfg.MaxGridCells }

// Dequeue blocks for the next accepted job, the given context, or
// drain. The channel receive delivers each job to exactly one placer.
// The job counts as in flight from here until it settles.
func (s *Server) Dequeue(ctx context.Context) (*Assignment, error) {
	select {
	case j, ok := <-s.queue:
		if !ok {
			return nil, ErrDraining
		}
		return s.assign(j), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryDequeue is Dequeue without the wait: it returns nil when no
// accepted job is queued. The cluster coordinator calls it when a
// worker pulls, so a job leaves the bounded queue only for a worker
// and the queue's capacity bounds what the coordinator accepts.
func (s *Server) TryDequeue() *Assignment {
	select {
	case j, ok := <-s.queue:
		if ok {
			return s.assign(j)
		}
	default:
	}
	return nil
}

// Queued reports how many accepted jobs wait in the queue.
func (s *Server) Queued() int { return len(s.queue) }

// assign hands a dequeued job to its placer; it counts as in flight
// until it settles.
func (s *Server) assign(j *job) *Assignment {
	s.inflight.Add(1)
	return &Assignment{ID: j.id, Key: j.key, Netlist: j.netlistText, Spec: j.spec, j: j}
}

// StartAttempt records the start of one execution: bumps the attempt
// counter, journals the running record (with the placement — the
// cluster worker's name, empty in-process — so a crash replay knows
// where the job was), then shows the job as running. It returns the
// attempt number.
func (s *Server) StartAttempt(a *Assignment, placement string) int {
	attempt := a.j.beginAttempt()
	s.journalAppend(journalRecord{Type: recRunning, ID: a.ID, Key: a.Key, Attempt: attempt, Worker: placement})
	a.j.setPlacement(placement)
	a.j.setRunning()
	s.metrics.Routed.Add(1)
	if placement != "" {
		s.logf("job %s attempt %d placed on %s", a.ID, attempt, placement)
	}
	return attempt
}

// Requeue returns a not-yet-terminal job to the queued state for
// re-placement (lease expiry). The single-flight key stays held — the
// job is still the one authoritative execution of its content address.
func (s *Server) Requeue(a *Assignment) {
	a.j.setQueued()
}

// Complete finishes a job with its marshaled result; placement names
// the cluster worker that produced it (empty in-process). Unless
// degraded, the result enters the cache before the single-flight key
// is released, so a concurrent identical submission either coalesces
// onto the finished job or hits the cache — never routes again. A
// second completion (duplicate upload, stale lease) reports false and
// changes nothing.
func (s *Server) Complete(a *Assignment, raw json.RawMessage, degraded bool, placement string) bool {
	return s.settle(a.j, journalRecord{Type: recDone, Result: raw, Degraded: degraded, Worker: placement}, false)
}

// Fail fails a job. canceled marks failures caused by timeout or
// shutdown for the Canceled counter.
func (s *Server) Fail(a *Assignment, msg string, canceled bool) bool {
	return s.settle(a.j, journalRecord{Type: recFailed, Error: msg}, canceled)
}

// FailInterrupted fails a job whose attempt budget was consumed by
// worker deaths or lease expiries, with the verdict the journal replay
// gives crash-interrupted jobs.
func (s *Server) FailInterrupted(a *Assignment) bool {
	return s.Fail(a, s.interrupted(), false)
}

// interrupted is the verdict of a job that ran out of attempts without
// ever reaching a terminal state.
func (s *Server) interrupted() string {
	return fmt.Sprintf("interrupted: job did not complete within %d attempts", s.cfg.MaxAttempts)
}

// Quarantine ends a job as quarantined and marks its content address
// as poison: any resubmission of the same payload is answered with msg
// instead of running again.
func (s *Server) Quarantine(a *Assignment, msg string) bool {
	return s.settle(a.j, journalRecord{Type: recQuarantined, Error: msg}, false)
}

// Panicked is the one panic policy. It counts the panic and reports
// whether the job may run again; once the panicking attempt was the
// last one allowed, it quarantines the job instead. The placer retries
// when it reports true.
func (s *Server) Panicked(a *Assignment, msg string) (retry bool) {
	s.metrics.Panics.Add(1)
	attempt := a.Attempts()
	if attempt < s.cfg.MaxAttempts {
		s.logf("job %s: panic on attempt %d/%d, retrying: %s", a.ID, attempt, s.cfg.MaxAttempts, firstLine(msg))
		return true
	}
	s.Quarantine(a, fmt.Sprintf("quarantined after %d panicking attempts: %s", attempt, msg))
	return false
}

// settle is the one order in which a terminal transition becomes
// durable and then visible: the exactly-once gate picks the winner,
// the record is journaled, the cache, quarantine registry and metrics
// are updated, and only then does GET see the state and the
// single-flight key come free. A crash before the append leaves
// nothing visible that replay could contradict. It reports whether
// this call won the transition.
func (s *Server) settle(j *job, rec journalRecord, canceled bool) bool {
	if !j.claim() {
		return false
	}
	rec.ID, rec.Key, rec.Attempt = j.id, j.key, j.attempts()
	if rec.Type == recDone {
		rec.Checksum = doneChecksum(rec.ID, rec.Key, rec.Result)
		rec.Epoch = ResultEpoch
	}
	s.journalAppend(rec)
	status := api.StatusFailed
	switch rec.Type {
	case recDone:
		status = api.StatusDone
		if rec.Degraded {
			// Degraded output is budget- (hence timing-) dependent:
			// keep it out of the content-addressed cache so a retry
			// under better conditions can produce the full result.
			s.metrics.Degraded.Add(1)
		} else {
			s.cache.Add(j.key, rec.Result)
		}
		s.metrics.Completed.Add(1)
	case recQuarantined:
		status = api.StatusQuarantined
		s.mu.Lock()
		s.quarantined[j.key] = quarInfo{id: j.id, msg: rec.Error}
		s.mu.Unlock()
		s.metrics.Quarantined.Add(1)
		s.metrics.Failed.Add(1)
	default:
		if canceled {
			s.metrics.Canceled.Add(1)
		}
		s.metrics.Failed.Add(1)
	}
	s.inflight.Add(-1)
	j.publish(status, rec.Result, rec.Error, rec.Worker, false)
	s.releaseKey(j)
	if rec.Error == "" {
		s.logf("job %s done on attempt %d", j.id, rec.Attempt)
	} else {
		s.logf("job %s %s on attempt %d: %s", j.id, status, rec.Attempt, firstLine(rec.Error))
	}
	return true
}

// Lookup returns a stored job's wire response — how the coordinator
// answers duplicate result uploads for already-terminal jobs.
func (s *Server) Lookup(id string) (api.JobResponse, bool) {
	j, ok := s.store.Get(id)
	if !ok {
		return api.JobResponse{}, false
	}
	return j.response(), true
}

// releaseKey drops the single-flight hold iff j still owns it.
func (s *Server) releaseKey(j *job) {
	s.mu.Lock()
	if s.running[j.key] == j {
		delete(s.running, j.key)
	}
	s.mu.Unlock()
}
