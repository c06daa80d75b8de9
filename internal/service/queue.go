package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/router"
	"repro/internal/service/api"
)

// startWorkers launches the fixed worker pool. Each worker pulls jobs
// off the bounded FIFO channel until Shutdown closes it; because the
// workers keep draining after close, every job that was accepted with
// 202 is driven to a terminal state before Shutdown returns.
//
// Each worker owns one router arena: back-to-back jobs on the same
// grid shape reuse the previous job's routing state wholesale instead
// of reallocating it (DESIGN.md §12). The arena never crosses
// goroutines, and a panicking attempt simply never releases its router
// back, so a job that corrupted its state cannot poison a later one.
func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			arena := router.NewArena()
			for j := range s.queue {
				s.runJob(j, arena)
			}
		}()
	}
}

// runJob drives one job to a terminal state. Each attempt runs under
// its own recover(): a panic anywhere in the routing/ILP stack is
// converted to a structured failure instead of killing the daemon,
// retried while attempts remain, and quarantined once the budget is
// spent so a poison job cannot crash-loop the service.
func (s *Server) runJob(j *job, arena *router.Arena) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	for {
		attempt := j.beginAttempt()
		s.journalAppend(journalRecord{Type: recRunning, ID: j.id, Key: j.key, Attempt: attempt})
		res, err, panicMsg := s.runAttempt(j, arena)

		if panicMsg != "" {
			s.metrics.Panics.Add(1)
			if attempt < s.cfg.MaxAttempts {
				s.logf("job %s: panic on attempt %d/%d, retrying: %s", j.id, attempt, s.cfg.MaxAttempts, firstLine(panicMsg))
				continue
			}
			msg := fmt.Sprintf("quarantined after %d panicking attempts: %s", attempt, panicMsg)
			s.mu.Lock()
			s.quarantined[j.key] = quarInfo{id: j.id, msg: msg}
			s.mu.Unlock()
			s.journalAppend(journalRecord{Type: recQuarantined, ID: j.id, Key: j.key, Attempt: attempt, Error: msg})
			s.metrics.Quarantined.Add(1)
			s.metrics.Failed.Add(1)
			j.quarantine(msg)
			s.logf("job %s quarantined: %s", j.id, firstLine(panicMsg))
			break
		}

		// Reach the terminal state (and, on success, populate the cache)
		// BEFORE releasing the single-flight key: a concurrent identical
		// submission must either coalesce onto this job or hit the cache —
		// never land in a gap between the two and route again.
		switch {
		case err != nil:
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				s.metrics.Canceled.Add(1)
			}
			s.metrics.Failed.Add(1)
			s.journalAppend(journalRecord{Type: recFailed, ID: j.id, Key: j.key, Attempt: attempt, Error: err.Error()})
			j.fail(err.Error())
			s.logf("job %s failed: %v", j.id, err)
		default:
			raw, merr := json.Marshal(res)
			if merr != nil {
				s.metrics.Failed.Add(1)
				msg := fmt.Sprintf("marshal result: %v", merr)
				s.journalAppend(journalRecord{Type: recFailed, ID: j.id, Key: j.key, Attempt: attempt, Error: msg})
				j.fail(msg)
				break
			}
			degraded := len(res.Degraded) > 0
			if degraded {
				// Degraded output is budget- (hence timing-) dependent:
				// keep it out of the content-addressed cache so a retry
				// under better conditions can produce the full result.
				s.metrics.Degraded.Add(1)
			} else {
				s.cache.Add(j.key, raw)
			}
			s.metrics.Completed.Add(1)
			s.journalAppend(journalRecord{Type: recDone, ID: j.id, Key: j.key, Attempt: attempt, Result: raw, Degraded: degraded})
			j.finish(raw, false)
			s.logf("job %s done: ckt=%s wl=%d vias=%d dv=%d uv=%d degraded=%v",
				j.id, res.Row.CKT, res.Row.WL, res.Row.Vias, res.Row.DV, res.Row.UV, res.Degraded)
		}
		break
	}

	s.releaseKey(j)
}

// runAttempt executes one attempt of the flow under the panic
// barrier. A caught panic is reported as a redacted message rather
// than an error so the caller can tell crashes from ordinary
// failures. The "worker.panic" fault site is the chaos hook for this
// path.
func (s *Server) runAttempt(j *job, arena *router.Arena) (res api.Result, err error, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprintf("panic: %v\n%s", r, redactedStack())
		}
	}()
	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		limit := s.cfg.JobTimeout
		if j.spec.Degrade {
			// Degrade mode replaces the hard deadline with per-phase
			// budgets (applyDegradeDefaults); the context keeps a 2×
			// backstop so a runaway phase without a budget still ends.
			limit *= 2
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limit)
		defer cancel()
	}
	j.setRunning()
	s.metrics.Routed.Add(1)
	if ferr := s.fault.Inject("worker.panic"); ferr != nil {
		panic(ferr)
	}
	res, err = s.run(ctx, j.nl, j.spec, arena)
	return
}

// journalAppend is the worker-side append: a failure is counted and
// logged but does not change the job's outcome — the in-memory state
// remains authoritative for this life of the daemon, and the attempt
// bound keeps replay of under-recorded jobs finite.
func (s *Server) journalAppend(rec journalRecord) {
	if err := s.journal.append(rec); err != nil {
		s.metrics.JournalErrors.Add(1)
		s.logf("job %s: journal %s: %v", rec.ID, rec.Type, err)
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
