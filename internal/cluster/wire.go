// Package cluster distributes sadprouted across machines: a
// coordinator owns the public /v1/jobs API, the durable journal, the
// content-addressed result cache and the single-flight table, and
// shards execution across worker processes over a pull-based HTTP/JSON
// RPC protocol. Workers hold no durable state: they pull an
// assignment, run the exact flow a standalone worker would
// (service.DefaultRun), and upload the marshaled result bytes; the
// coordinator's journal remains the one source of truth, so any
// worker can die at any point without losing work.
//
// Protocol (all POST, JSON bodies):
//
//	/cluster/v1/pull      worker asks for a job (long-poll)
//	/cluster/v1/result    worker uploads a finished job's result
//	/cluster/v1/heartbeat worker renews its leases
//
// Liveness is lease-based: every assignment carries a lease token and
// TTL; heartbeats renew it. A worker that stops heartbeating — killed,
// wedged, partitioned — loses its leases at expiry and the sweeper
// re-places the jobs on surviving workers, excluding the holder that
// lost them. Safety against the resulting double execution is not
// timing-based: every terminal transition funnels through the job's
// exactly-once terminate gate on the coordinator, so a presumed-dead
// worker's late upload either wins (its bytes are served, the rerun's
// duplicate is a no-op) or loses (it is answered "duplicate"/"stale"
// and discarded). Either way exactly one result is journaled, cached
// and served — and because the flow is deterministic, both executions
// produced the same bytes anyway. That is the invariant the
// differential e2e keeps honest: byte-identical results across
// standalone, 1-worker and N-worker topologies.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/bench"
	"repro/internal/service"
)

// Wire paths. The coordinator mounts them next to the public API; the
// worker client posts to them.
const (
	PathPull      = "/cluster/v1/pull"
	PathResult    = "/cluster/v1/result"
	PathHeartbeat = "/cluster/v1/heartbeat"
)

// PullRequest asks for one assignment. WaitMS long-polls: the
// coordinator holds the request up to that long waiting for work
// before answering an empty PullResponse.
type PullRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int    `json:"wait_ms,omitempty"`
}

// JobAssignment is one leased job.
type JobAssignment struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// Netlist is the full submission text; the worker parses it itself.
	Netlist string        `json:"netlist"`
	Spec    bench.RunSpec `json:"spec"`
	// Lease is the opaque token tying this placement to the lease
	// table; every result upload and heartbeat quotes it.
	Lease string `json:"lease"`
	// Attempt is the execution count this placement represents.
	Attempt int `json:"attempt"`
	// LeaseTTLMS tells the worker how often it must heartbeat (the
	// coordinator expires the lease after this long without one).
	LeaseTTLMS int `json:"lease_ttl_ms"`
	// TimeoutMS is the per-job execution deadline (0 = none).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// PullResponse answers a pull. A nil Job means no work was available
// within the wait window; Draining tells the worker the coordinator is
// shutting down and it should exit its pull loop; Quarantined tells a
// worker that exceeded the upload-rejection budget it will never be
// granted work again and should exit with an error an operator sees.
type PullResponse struct {
	Job         *JobAssignment `json:"job,omitempty"`
	Draining    bool           `json:"draining,omitempty"`
	Quarantined bool           `json:"quarantined,omitempty"`
}

// ResultRequest uploads one finished job: the service.Outcome of its
// attempt. Exactly one of Result, Error or Panic is set: Result
// carries the marshaled api.Result bytes on success (stored and served
// verbatim — the coordinator never re-marshals, preserving byte
// identity), Error a structured failure, Panic a redacted panic
// message from the attempt's recover barrier.
type ResultRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    string `json:"job_id"`
	Lease    string `json:"lease"`
	// Key is the job's content address; the coordinator cross-checks it
	// against its own record before accepting the bytes.
	Key string `json:"key"`
	service.Outcome
	// Checksum is the hex SHA-256 of Result as the worker produced it.
	// The decoder skips unknown keys, so a flipped bit in a key name
	// can decode to a valid, different result; the checksum catches
	// any change to the bytes themselves.
	Checksum string `json:"checksum,omitempty"`
	// SpoolReplay marks an upload replayed from the worker's durable
	// result spool after a restart (metrics only; the idempotency
	// contract already makes the replay itself safe).
	SpoolReplay bool `json:"spool_replay,omitempty"`
}

// checksum is the hex SHA-256 of a result's bytes.
func checksum(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// Result upload verdicts.
const (
	// ResultAccepted: this upload won the job's terminal transition.
	ResultAccepted = "accepted"
	// ResultDuplicate: the job was already terminal (duplicate upload
	// or a rerun finishing after the original); the upload is a no-op,
	// not an error — idempotency contract.
	ResultDuplicate = "duplicate"
	// ResultStale: the upload quoted an expired lease and did not
	// decide the job (a successful stale upload is answered
	// "accepted" instead — deterministic results make it as good as
	// the rerun's).
	ResultStale = "stale"
	// ResultRejected: the coordinator's validator refused the payload
	// (corrupt, inconsistent, or failing the full verify re-check);
	// the job was requeued for another worker and this upload must not
	// be retried — the same bytes can never pass.
	ResultRejected = "rejected"
)

// ResultResponse answers a result upload. Reason carries the
// validator's rejection class when Status is "rejected".
type ResultResponse struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// HeartbeatRequest renews a worker's liveness and its leases.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	// Jobs maps job ID → lease token for every job the worker is
	// currently executing.
	Jobs map[string]string `json:"jobs,omitempty"`
	// RetryAttempts reports the worker's cumulative RPC retry counts
	// by RPC name ("pull", "result", "heartbeat"); the coordinator
	// accumulates the deltas into its
	// cluster_retry_attempts_total{rpc} exposition.
	RetryAttempts map[string]int64 `json:"retry_attempts,omitempty"`
}

// HeartbeatResponse lists which leases were renewed and which are
// lost (expired and re-placed, or the job is already terminal). The
// worker cancels lost executions and suppresses their uploads.
type HeartbeatResponse struct {
	Renewed []string `json:"renewed,omitempty"`
	Lost    []string `json:"lost,omitempty"`
}
