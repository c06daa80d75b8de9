package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/router"
)

// startWorkers launches the fixed worker pool: the in-process placer
// on the dispatch seam. Each worker Dequeues until Shutdown closes the
// queue; because the workers keep draining after close, every job that
// was accepted with 202 is driven to a terminal state before Shutdown
// returns.
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
			for {
				// No deadline: the pool drains the queue until it
				// closes, even after Shutdown cancels in-flight work.
				a, err := s.Dequeue(context.Background())
				if err != nil {
					return // ErrDraining: the queue is closed and empty
				}
				s.place(a, arena)
			}
		}()
	}
}

// place drives one assignment to a terminal state in-process. It takes
// the same steps as a cluster placement, without the wire: a panicking
// attempt retries inline while Panicked allows it.
func (s *Server) place(a *Assignment, arena *router.Arena) {
	for {
		s.StartAttempt(a, "")
		out := Execute(s.baseCtx, a.j.nl, a.Spec, s.cfg.JobTimeout, s.run, arena, s.fault)
		switch {
		case out.Panic != "":
			if s.Panicked(a, out.Panic) {
				continue
			}
		case out.Error != "":
			s.Fail(a, out.Error, out.Canceled)
		default:
			s.Complete(a, out.Result, out.Degraded, "")
		}
		return
	}
}

// Outcome is what one attempt of a job produced. Exactly one of
// Result, Error and Panic is set. It travels as JSON inside a cluster
// worker's result upload.
type Outcome struct {
	// Result is the marshaled api.Result: the bytes that are journaled,
	// cached and served.
	Result json.RawMessage `json:"result,omitempty"`
	// Degraded marks a Result that lists a degradation; it is never
	// cached.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// Canceled marks an Error caused by the job deadline or shutdown.
	Canceled bool `json:"canceled,omitempty"`
	// Panic is the recovered panic with its redacted stack.
	Panic string `json:"panic,omitempty"`
}

// Execute runs one attempt of the flow and marshals what it produced.
// It is the one attempt function: the in-process pool and every
// cluster worker call it, so both placers run and marshal a job the
// same way. timeout bounds the flow (zero means none); a degrade-mode
// spec gets twice that, a backstop behind its phase budgets
// (applyDegradeDefaults). A panic anywhere in the routing/ILP stack,
// or at the "worker.panic" fault site, is recovered into
// Outcome.Panic with a redacted stack instead of killing the process.
func Execute(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, timeout time.Duration, run RunFunc, arena *router.Arena, flt *fault.Injector) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Panic: fmt.Sprintf("panic: %v\n%s", r, redactedStack())}
		}
	}()
	if timeout > 0 {
		if spec.Degrade {
			timeout *= 2
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if ferr := flt.Inject("worker.panic"); ferr != nil {
		panic(ferr)
	}
	res, err := run(ctx, nl, spec, arena)
	if err != nil {
		canceled := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
		return Outcome{Error: err.Error(), Canceled: canceled}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return Outcome{Error: fmt.Sprintf("marshal result: %v", err)}
	}
	return Outcome{Result: raw, Degraded: len(res.Degraded) > 0}
}

// journalAppend is the append for every record after the submit
// record: a failure is counted and logged but does not change the
// job's outcome — the in-memory state remains authoritative for this
// life of the daemon, and the attempt bound keeps replay of
// under-recorded jobs finite.
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
