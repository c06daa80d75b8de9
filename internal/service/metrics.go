package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics are the service's operational counters. All fields are
// monotonic counters unless noted; gauges (queue depth, in-flight
// jobs, cache size) are sampled live at render time because they are
// owned by other structures.
type Metrics struct {
	// Submitted counts POST /v1/jobs requests that decoded and
	// validated successfully (including cache hits and dedups).
	Submitted atomic.Int64
	// Rejected counts submissions refused with 429 (queue full).
	Rejected atomic.Int64
	// Deduped counts submissions coalesced onto an already queued or
	// running identical job (single-flight).
	Deduped atomic.Int64
	// CacheHits / CacheMisses count result-cache lookups at submit.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Routed counts jobs a worker actually started the flow for — a
	// cache hit is visible as Submitted increasing while Routed does
	// not.
	Routed atomic.Int64
	// Completed / Failed count terminal worker outcomes.
	Completed atomic.Int64
	Failed    atomic.Int64
	// Canceled counts jobs aborted by the per-job timeout or shutdown.
	Canceled atomic.Int64
	// Panics counts panicking attempts, in-process or on a cluster
	// worker: Execute recovers each into a structured outcome instead
	// of killing the process, and Panicked counts it.
	Panics atomic.Int64
	// Quarantined counts jobs isolated after panicking on every
	// allowed attempt.
	Quarantined atomic.Int64
	// Degraded counts jobs that completed in a degraded mode (phase
	// budget expired, graceful fallback taken).
	Degraded atomic.Int64
	// Replayed counts jobs re-enqueued from the journal on boot.
	Replayed atomic.Int64
	// JournalErrors counts failed journal appends (injected or
	// organic).
	JournalErrors atomic.Int64
	// ClusterRequeues counts jobs re-placed after a worker lease
	// expired (coordinator mode only).
	ClusterRequeues atomic.Int64
	// ClusterDupResults counts duplicate result uploads accepted as
	// no-ops (idempotent /cluster/v1/result).
	ClusterDupResults atomic.Int64
	// ClusterStaleResults counts result uploads that arrived under an
	// expired lease.
	ClusterStaleResults atomic.Int64
	// ClusterUploadRejects counts result uploads the coordinator's
	// validator refused, partitioned by rejection reason ("spec-echo",
	// "content-address", "metric-recount", "verify", ...).
	ClusterUploadRejects LabeledCounter
	// ClusterWorkerQuarantines counts workers quarantined for exceeding
	// the upload-rejection budget.
	ClusterWorkerQuarantines atomic.Int64
	// ClusterHedged counts speculative straggler re-dispatches (a
	// second lease placed on a job running far past the fleet median).
	ClusterHedged atomic.Int64
	// ClusterRetryAttempts counts worker-side RPC retries, partitioned
	// by RPC name ("pull", "result", "heartbeat"). Workers report
	// cumulative counts in heartbeats; the coordinator accumulates the
	// deltas here.
	ClusterRetryAttempts LabeledCounter
	// ClusterSpoolReplays counts result uploads replayed from a
	// worker's durable spool after a restart.
	ClusterSpoolReplays atomic.Int64
}

// LabeledCounter is a monotonic counter partitioned by one label value
// — the hand-rolled stand-in for a Prometheus counter vec.
type LabeledCounter struct {
	mu   sync.Mutex
	vals map[string]int64 // guarded by mu
}

// Add increments the label's count.
func (c *LabeledCounter) Add(label string, n int64) {
	c.mu.Lock()
	if c.vals == nil {
		c.vals = make(map[string]int64)
	}
	c.vals[label] += n
	c.mu.Unlock()
}

// Get returns one label's count.
func (c *LabeledCounter) Get(label string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[label]
}

// Total sums all labels.
func (c *LabeledCounter) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, v := range c.vals {
		t += v
	}
	return t
}

// writePrometheus renders the counter with one sample per label, in
// sorted label order so scrapes are deterministic. The metric is
// emitted (with its HELP/TYPE header only) even when empty, so
// dashboards can discover it before the first event.
func (c *LabeledCounter) writePrometheus(w io.Writer, name, help, labelKey string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := make([]string, 0, len(c.vals))
	for l := range c.vals {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, labelKey, l, c.vals[l])
	}
}

// Gauges are point-in-time values rendered next to the counters.
type Gauges struct {
	QueueDepth int
	Inflight   int
	CacheSize  int
	Draining   bool
}

// WritePrometheus renders the metrics in the Prometheus text
// exposition format (hand-rolled: the repo takes no dependencies).
func (m *Metrics) WritePrometheus(w io.Writer, g Gauges) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("sadprouted_jobs_submitted_total", "Accepted job submissions.", m.Submitted.Load())
	counter("sadprouted_jobs_rejected_total", "Submissions rejected with 429 (queue full).", m.Rejected.Load())
	counter("sadprouted_jobs_deduped_total", "Submissions single-flighted onto an in-flight identical job.", m.Deduped.Load())
	counter("sadprouted_cache_hits_total", "Submissions served from the result cache.", m.CacheHits.Load())
	counter("sadprouted_cache_misses_total", "Submissions that missed the result cache.", m.CacheMisses.Load())
	counter("sadprouted_jobs_routed_total", "Jobs whose routing flow actually ran.", m.Routed.Load())
	counter("sadprouted_jobs_completed_total", "Jobs that finished successfully.", m.Completed.Load())
	counter("sadprouted_jobs_failed_total", "Jobs that finished with an error.", m.Failed.Load())
	counter("sadprouted_jobs_canceled_total", "Jobs aborted by timeout or shutdown.", m.Canceled.Load())
	counter("sadprouted_panics_total", "Worker panics caught and converted to job failures.", m.Panics.Load())
	counter("sadprouted_quarantined_total", "Jobs quarantined after repeated panics.", m.Quarantined.Load())
	counter("sadprouted_jobs_degraded_total", "Jobs completed in a degraded mode after a phase budget expired.", m.Degraded.Load())
	counter("sadprouted_jobs_replayed_total", "Jobs re-enqueued from the journal at boot.", m.Replayed.Load())
	counter("sadprouted_journal_errors_total", "Journal append failures.", m.JournalErrors.Load())
	gauge("sadprouted_queue_depth", "Jobs waiting in the FIFO queue.", int64(g.QueueDepth))
	gauge("sadprouted_jobs_inflight", "Jobs dequeued for execution and not yet terminal.", int64(g.Inflight))
	gauge("sadprouted_cache_entries", "Entries in the result cache.", int64(g.CacheSize))
	d := int64(0)
	if g.Draining {
		d = 1
	}
	gauge("sadprouted_draining", "1 while the service is draining for shutdown.", d)
}

// ClusterGauges are the coordinator's point-in-time values.
type ClusterGauges struct {
	// Workers is the count of workers with a fresh heartbeat.
	Workers int
	// LeasesActive is the count of jobs currently leased to workers.
	LeasesActive int
}

// WriteCluster renders the cluster-scope counters, gauges and the
// per-worker latency histogram; the coordinator appends it to the
// service exposition on GET /metrics.
func (m *Metrics) WriteCluster(w io.Writer, g ClusterGauges, h *LatencyHist) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("sadprouted_cluster_requeues_total", "Jobs re-placed after a worker lease expired.", m.ClusterRequeues.Load())
	counter("sadprouted_cluster_duplicate_results_total", "Duplicate result uploads accepted as no-ops.", m.ClusterDupResults.Load())
	counter("sadprouted_cluster_stale_results_total", "Result uploads that arrived under an expired lease.", m.ClusterStaleResults.Load())
	m.ClusterUploadRejects.writePrometheus(w, "sadprouted_cluster_upload_rejects_total", "Result uploads refused by the coordinator's validator, by reason.", "reason")
	counter("sadprouted_cluster_worker_quarantines_total", "Workers quarantined for exceeding the upload-rejection budget.", m.ClusterWorkerQuarantines.Load())
	counter("sadprouted_cluster_hedged_dispatch_total", "Speculative straggler re-dispatches (second lease on a slow job).", m.ClusterHedged.Load())
	m.ClusterRetryAttempts.writePrometheus(w, "sadprouted_cluster_retry_attempts_total", "Worker-side RPC retries, by RPC.", "rpc")
	counter("sadprouted_cluster_spool_replays_total", "Result uploads replayed from a worker's durable spool after restart.", m.ClusterSpoolReplays.Load())
	gauge("sadprouted_cluster_workers", "Workers with a fresh heartbeat.", int64(g.Workers))
	gauge("sadprouted_cluster_leases_active", "Jobs currently leased to workers.", int64(g.LeasesActive))
	h.WritePrometheus(w, "sadprouted_cluster_job_seconds")
}

// latencyBuckets are the histogram upper bounds in seconds, chosen for
// routing jobs that span tens of milliseconds (tiny suite) to minutes
// (Table I circuits).
var latencyBuckets = [...]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// LatencyHist is a fixed-bucket latency histogram partitioned by
// worker, rendered in the Prometheus histogram exposition format. The
// repo takes no dependencies, so it is hand-rolled like the rest of
// this file.
type LatencyHist struct {
	mu      sync.Mutex
	byLabel map[string]*histSeries // guarded by mu
}

// histSeries is one worker's observations. Instances are only touched
// while the owning LatencyHist's mu is held.
type histSeries struct {
	counts [len(latencyBuckets) + 1]int64 // per-bucket (non-cumulative); last is +Inf
	sum    float64
	n      int64
}

// NewLatencyHist builds an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{byLabel: make(map[string]*histSeries)}
}

// Observe records one job latency for the given worker.
func (h *LatencyHist) Observe(worker string, d time.Duration) {
	sec := d.Seconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.byLabel[worker]
	if !ok {
		s = &histSeries{}
		h.byLabel[worker] = s
	}
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	s.counts[i]++
	s.sum += sec
	s.n++
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0,1]) of all observations across workers, along with the total
// observation count. The estimate is the upper bound of the bucket the
// quantile falls in — coarse, but monotone and cheap, which is all the
// hedging sweeper needs to decide "running far past the median". The
// +Inf bucket reports the largest finite bound doubled.
func (h *LatencyHist) Quantile(q float64) (seconds float64, n int64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var agg [len(latencyBuckets) + 1]int64
	for _, s := range h.byLabel {
		for i, c := range s.counts {
			agg[i] += c
		}
		n += s.n
	}
	if n == 0 {
		return 0, 0
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range agg {
		cum += c
		if cum >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i], n
			}
			return 2 * latencyBuckets[len(latencyBuckets)-1], n
		}
	}
	return 2 * latencyBuckets[len(latencyBuckets)-1], n
}

// WritePrometheus renders every worker's series under the given metric
// name with a `worker` label, in sorted worker order so scrapes are
// deterministic.
func (h *LatencyHist) WritePrometheus(w io.Writer, name string) {
	if h == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s Job execution latency per worker.\n# TYPE %s histogram\n", name, name)
	h.mu.Lock()
	defer h.mu.Unlock()
	workers := make([]string, 0, len(h.byLabel))
	for worker := range h.byLabel {
		workers = append(workers, worker)
	}
	sort.Strings(workers)
	for _, worker := range workers {
		s := h.byLabel[worker]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += s.counts[i]
			fmt.Fprintf(w, "%s_bucket{worker=%q,le=%q} %d\n", name, worker, formatBucket(ub), cum)
		}
		cum += s.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "%s_bucket{worker=%q,le=\"+Inf\"} %d\n", name, worker, cum)
		fmt.Fprintf(w, "%s_sum{worker=%q} %g\n", name, worker, s.sum)
		fmt.Fprintf(w, "%s_count{worker=%q} %d\n", name, worker, s.n)
	}
}

// formatBucket renders an upper bound the way Prometheus expects
// ("0.05", "1", "2.5") without float noise.
func formatBucket(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
