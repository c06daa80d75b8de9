// Package api defines the one result schema shared by the sadprouted
// HTTP service and the sadproute CLI's -json output. It deliberately
// reuses internal/bench's RunSpec (the experiment configuration) and
// Row (the Table-style metrics) as the wire format instead of
// inventing a parallel schema: anything that can drive the benchmark
// harness can drive the service, and vice versa.
package api

import (
	"encoding/json"
	"fmt"

	"repro/internal/bench"
	"repro/internal/solution"
)

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Netlist is the placed netlist in internal/netlist text format.
	Netlist string `json:"netlist"`
	// Spec configures routing and post-routing DVI. Enum fields take
	// their string names ("sim"/"sid", "ilp"/"heur"/"none"); a zero
	// Params block means the paper's Table II defaults.
	Spec bench.RunSpec `json:"spec"`
}

// Result is the completed-flow output: what `sadproute -json` prints
// and what a finished job's JobResponse embeds.
type Result struct {
	// Spec echoes the configuration the flow actually ran.
	Spec bench.RunSpec `json:"spec"`
	// Row carries the paper's table metrics: WL, vias, #DV, #UV,
	// routing and DVI CPU (nanoseconds), routability.
	Row bench.Row `json:"row"`
	// InsertedVias counts redundant vias inserted by post-routing DVI
	// (0 when Spec.Method is "none").
	InsertedVias int `json:"inserted_vias"`
	// Degraded lists the steps whose output depends on a wall-clock
	// budget: "tpl-rr-timeout" when the TPL phase budget expired, and
	// "dvi-ilp-timeout" when the ILP's time limit stopped its search
	// or the degrade fallback replaced it. Empty when the result is a
	// function of the netlist and spec alone; only such results are
	// cached.
	Degraded []string `json:"degraded,omitempty"`
	// RemainingFVPs counts forbidden via patterns left unresolved when
	// the TPL violation-removal phase was degraded (0 otherwise).
	RemainingFVPs int `json:"remaining_fvps,omitempty"`
	// Verify is the independent checker's verdict, present when the
	// spec set "verify": true.
	Verify *VerifyReport `json:"verify,omitempty"`
	// Solution is the solution payload (internal/solution, version 2):
	// every net's paths as an origin plus one byte per step and, when
	// DVI ran, each single via's inserted candidate and colors. It is
	// present when the spec set "include_solution": true. It is a pure
	// function of the input and spec — no timing fields — so it is the
	// payload the cluster coordinator recounts and re-verifies and the
	// distributed differential tests byte-compare across standalone
	// and cluster topologies.
	Solution json.RawMessage `json:"solution,omitempty"`
}

// VerifyReport is the wire form of internal/verify's report: the
// verdict plus each violation spelled out.
type VerifyReport struct {
	Ok         bool     `json:"ok"`
	Violations []string `json:"violations,omitempty"`
	// Truncated is true when violations beyond the checker's cap were
	// dropped from the list.
	Truncated bool `json:"truncated,omitempty"`
}

// ResultFrom wraps a finished bench run into the wire schema, shared
// by the CLI's -json output and the service's defaultRun so both emit
// byte-identical results for the same flow.
func ResultFrom(spec bench.RunSpec, row bench.Row, art *bench.Artifacts) Result {
	res := Result{Spec: spec, Row: row}
	if art == nil {
		return res
	}
	res.Degraded = art.Degraded
	res.RemainingFVPs = art.RemainingFVPs
	if art.Solution != nil {
		res.InsertedVias = art.Solution.InsertedCount
	}
	if spec.IncludeSolution && art.Router != nil {
		// Encode before the caller releases the router to an arena: the
		// bytes must never alias recycled routing state. The router
		// emits only unit-step paths of its own nets, so an encode error
		// is unreachable; a nil Solution on the impossible path beats a
		// panic.
		if b, err := solution.Encode(art.Router.Routes(), art.Instance, art.Solution); err == nil {
			res.Solution = b
		}
	}
	if art.Verify != nil {
		vr := &VerifyReport{Ok: art.Verify.Ok(), Truncated: art.Verify.Truncated}
		for _, v := range art.Verify.Violations {
			vr.Violations = append(vr.Violations, v.String())
		}
		res.Verify = vr
	}
	return res
}

// JobStatus is the lifecycle of a submitted job.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
	// StatusQuarantined marks a poison job: it panicked the worker on
	// every allowed attempt and will not be retried. Submissions whose
	// content address matches a quarantined job are answered with this
	// status immediately instead of crash-looping the daemon.
	StatusQuarantined JobStatus = "quarantined"
)

// SubmitResponse is the body of a successful POST /v1/jobs (202).
type SubmitResponse struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// CacheHit is true when the result was served from the result
	// cache without routing; the job is born in state "done".
	CacheHit bool `json:"cache_hit,omitempty"`
	// Deduped is true when an identical submission was already queued
	// or running; ID names that existing job (single-flight).
	Deduped bool `json:"deduped,omitempty"`
}

// JobResponse is the body of GET /v1/jobs/{id}.
type JobResponse struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// Worker names the cluster worker the job was last placed on
	// (coordinator mode; empty when the job ran in-process).
	Worker string `json:"worker,omitempty"`
	// Error carries the failure message when Status is "failed".
	Error string `json:"error,omitempty"`
	// CacheHit marks results served from the cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Result is the marshaled Result, present when Status is "done".
	// It is stored as raw bytes so cache replays are byte-identical.
	Result json.RawMessage `json:"result,omitempty"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodeResult unpacks a JobResponse's raw result.
func (j *JobResponse) DecodeResult() (*Result, error) {
	if j.Result == nil {
		return nil, fmt.Errorf("job %s (%s) has no result", j.ID, j.Status)
	}
	var r Result
	if err := json.Unmarshal(j.Result, &r); err != nil {
		return nil, fmt.Errorf("job %s: bad result payload: %w", j.ID, err)
	}
	return &r, nil
}
