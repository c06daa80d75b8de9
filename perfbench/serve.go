package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/coloring"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/service/api"
)

// serve is the cluster serving path in one process: a coordinator over
// an external-exec service with verified uploads and a journal, two
// one-slot pull workers on a loopback listener, and closed-loop HTTP
// clients. Each client sends a seeded stream of tiny-shaped circuits;
// about one job in seven repeats an input the same client finished
// recently, so it is answered from the result cache. Hundreds of small
// jobs run through recycled router arenas, and the service and cluster
// layers carry a share of the time they carry nowhere else.
const (
	serveClients = 2
	// serveJobsPerSecond is the nominal closed-loop rate of two clients
	// on a 2-core VM; --seconds buys that many jobs per second.
	serveJobsPerSecond = 40
	// serveMinJobs keeps at least ten jobs beyond the 95th percentile.
	serveMinJobs = 200
	serveRepeat  = 0.15
	// serveRecent is how many of its latest distinct inputs a client
	// may repeat; far below the result cache's 128 entries.
	serveRecent = 8
	servePoll   = 2 * time.Millisecond
	// serveJobTimeout fails a job that never finishes, so a stuck
	// service fails the run instead of hanging it.
	serveJobTimeout = 30 * time.Second
)

type serveWorkload struct{}

// serveJob is one submission of a client's stream.
type serveJob struct {
	name     string // netlist name, unique per distinct input
	body     []byte // the marshaled api.SubmitRequest
	repeatOf int    // stream index of the job this one repeats, or -1
}

type serveInstance struct {
	streams [serveClients][]serveJob
	repeats int
	dir     string
	svc     *service.Server
	coord   *cluster.Coordinator
	srv     *http.Server
	base    string
	client  *http.Client
	rec     *execRecorder

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	served      chan error
}

// serveSpec alternates SIM and SID over a client's distinct inputs.
func serveSpec(u int) bench.RunSpec {
	scheme := coloring.SIM
	if u%2 == 1 {
		scheme = coloring.SID
	}
	return bench.RunSpec{
		Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI,
		Verify: true, IncludeSolution: true,
	}
}

// serveCircuit is the stream's input shape: 34 nets on 56×56, every
// third one multi-pin.
func serveCircuit(name string, u int, seed int64) bench.Circuit {
	c := bench.Circuit{Name: name, Nets: 34, W: 56, H: 56, Seed: seed}
	if u%3 == 2 {
		c.MaxPins = 6
	}
	return c
}

func submitBody(text []byte, spec bench.RunSpec) ([]byte, error) {
	return json.Marshal(api.SubmitRequest{Netlist: string(text), Spec: spec})
}

// stream generates one client's job sequence.
func stream(tr *tracer, seed int64, client, n int) ([]serveJob, int, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	var jobs []serveJob
	var distinct []int
	repeats := 0
	for k := 0; k < n; k++ {
		if len(distinct) > 0 && rng.Float64() < serveRepeat {
			recent := distinct[max(0, len(distinct)-serveRecent):]
			j := recent[rng.Intn(len(recent))]
			jobs = append(jobs, serveJob{name: jobs[j].name, body: jobs[j].body, repeatOf: j})
			repeats++
			continue
		}
		u := len(distinct)
		c := serveCircuit(fmt.Sprintf("c%d-%04d", client, u), u, rng.Int63())
		text, err := generate(tr, c)
		if err != nil {
			return nil, 0, err
		}
		if _, err := parse(tr, c.Name, text); err != nil {
			return nil, 0, err
		}
		body, err := submitBody(text, serveSpec(u))
		if err != nil {
			return nil, 0, err
		}
		distinct = append(distinct, k)
		jobs = append(jobs, serveJob{name: c.Name, body: body, repeatOf: -1})
	}
	return jobs, repeats, nil
}

func (serveWorkload) prepare(cfg config, setup, run *tracer) (instance, error) {
	s := &serveInstance{}
	total := max(serveMinJobs, cfg.seconds*serveJobsPerSecond)
	for c := range s.streams {
		jobs, repeats, err := stream(setup, cfg.seed, c, total/serveClients)
		if err != nil {
			return nil, err
		}
		s.streams[c] = jobs
		s.repeats += repeats
	}
	if err := s.start(cfg, run); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start brings up the coordinator and both workers and returns once
// each worker has pulled.
func (s *serveInstance) start(cfg config, tr *tracer) error {
	dir, err := os.MkdirTemp(cfg.out, "serve-journal-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.svc, err = service.New(service.Config{ExternalExec: true, DataDir: dir})
	if err != nil {
		return err
	}
	s.coord = cluster.NewCoordinator(s.svc, cluster.CoordinatorConfig{VerifyUploads: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = s.coord.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
		Timeout:   serveJobTimeout,
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	if tr != nil {
		s.rec = &execRecorder{counts: map[string]map[string]float64{}}
	}
	for i := 0; i < 2; i++ {
		wc := cluster.WorkerConfig{Coordinator: s.base, ID: fmt.Sprintf("w%d", i), Slots: 1}
		if tr != nil {
			wc.Client = &http.Client{Transport: &tracedTransport{tr: tr, worker: wc.ID, base: http.DefaultTransport}}
			wc.Run = tracedRun(tr, s.rec)
		}
		w := cluster.NewWorker(wc)
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !s.workersLive(2) {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers did not pull within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// workersLive reads the coordinator's live-worker gauge.
func (s *serveInstance) workersLive(n int) bool {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return err == nil && strings.Contains(string(b), fmt.Sprintf("\nsadprouted_cluster_workers %d\n", n))
}

// warmUp runs one job per worker slot, concurrently, on inputs outside
// every stream.
func (s *serveInstance) warmUp() error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		circuit := serveCircuit(fmt.Sprintf("warmup-%d", c), c, int64(77+c))
		text, err := generate(nil, circuit)
		if err != nil {
			return err
		}
		body, err := submitBody(text, serveSpec(c))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = s.do(nil, serveJob{name: circuit.Name, body: body, repeatOf: -1})
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *serveInstance) close() {
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workers.Wait()
	}
	if s.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.coord.Shutdown(ctx)
		cancel()
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// outcome is one job as its client saw it.
type outcome struct {
	latency time.Duration
	hit     bool // answered from the result cache
	deduped bool // coalesced onto an identical job
	raw     json.RawMessage
	res     *api.Result
}

// do submits one job and polls until the client holds a result whose
// independent verification passed.
func (s *serveInstance) do(tr *tracer, job serveJob) (outcome, error) {
	start := time.Now()
	root := tr.begin("client.job", -1, job.name)
	defer tr.end(root)
	var sr api.SubmitResponse
	var err error
	tr.do("client.submit", root, job.name, func() { sr, err = s.submit(job.body) })
	if err != nil {
		return outcome{}, err
	}
	var jr api.JobResponse
	for done := false; !done; {
		if time.Since(start) > serveJobTimeout {
			return outcome{}, fmt.Errorf("job %s not done after %v", sr.ID, serveJobTimeout)
		}
		if sr.Status != api.StatusDone {
			time.Sleep(servePoll)
		}
		tr.do("client.poll", root, job.name, func() { jr, err = s.get(sr.ID) })
		if err != nil {
			return outcome{}, err
		}
		switch jr.Status {
		case api.StatusDone:
			done = true
		case api.StatusFailed, api.StatusQuarantined:
			return outcome{}, fmt.Errorf("job %s %s: %s", jr.ID, jr.Status, jr.Error)
		}
	}
	res, err := jr.DecodeResult()
	if err != nil {
		return outcome{}, err
	}
	if res.Verify == nil || !res.Verify.Ok {
		return outcome{}, fmt.Errorf("job %s: verification failed: %+v", jr.ID, res.Verify)
	}
	return outcome{latency: time.Since(start), hit: jr.CacheHit, deduped: sr.Deduped, raw: jr.Result, res: res}, nil
}

func (s *serveInstance) submit(body []byte) (api.SubmitResponse, error) {
	var sr api.SubmitResponse
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return sr, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return sr, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return sr, json.Unmarshal(b, &sr)
}

func (s *serveInstance) get(id string) (api.JobResponse, error) {
	var jr api.JobResponse
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id)
	if err != nil {
		return jr, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return jr, err
	}
	if resp.StatusCode != http.StatusOK {
		return jr, fmt.Errorf("poll %s: %s: %s", id, resp.Status, bytes.TrimSpace(b))
	}
	return jr, json.Unmarshal(b, &jr)
}

// clientResult is one client's share of the timed phase.
type clientResult struct {
	latencies []time.Duration
	hits      []time.Duration
	bytes     int
	quality   quality
	routeCPU  time.Duration
	dviCPU    time.Duration
	failures  []string
	failed    int
}

// runClient sends the client's stream in a closed loop and checks each
// result: verification passed, and a repeated input came back without
// being routed again, byte-identical to the result of its first
// submission. A repeat sent just as its first job finishes may be
// coalesced onto that job instead of hitting the cache; the service
// promises one or the other.
func (s *serveInstance) runClient(tr *tracer, jobs []serveJob) clientResult {
	var cr clientResult
	raws := map[int]json.RawMessage{}
	var distinct []int
	for k, job := range jobs {
		o, err := s.do(tr, job)
		if err == nil && job.repeatOf >= 0 && !((o.hit || o.deduped) && bytes.Equal(o.raw, raws[job.repeatOf])) {
			err = fmt.Errorf("repeat of %s: cache hit %v, coalesced %v, byte-identical %v",
				job.name, o.hit, o.deduped, bytes.Equal(o.raw, raws[job.repeatOf]))
		}
		if err != nil {
			cr.failed++
			cr.failures = append(cr.failures, fmt.Sprintf("%s: %v", job.name, err))
			continue
		}
		cr.latencies = append(cr.latencies, o.latency)
		cr.bytes += len(o.raw)
		if job.repeatOf >= 0 {
			cr.hits = append(cr.hits, o.latency)
			continue
		}
		row := o.res.Row
		cr.quality.add(quality{row.WL, row.Vias, row.DV, row.UV})
		cr.routeCPU += row.RouteCPU
		cr.dviCPU += row.DVICPU
		raws[k] = o.raw
		distinct = append(distinct, k)
		if len(distinct) > serveRecent {
			delete(raws, distinct[len(distinct)-serveRecent-1])
		}
	}
	return cr
}

func (s *serveInstance) timed(tr *tracer) *phase {
	m := s.svc.Metrics()
	hits0, misses0, rejected0 := m.CacheHits.Load(), m.CacheMisses.Load(), m.Rejected.Load()
	requeues0, rejects0 := m.ClusterRequeues.Load(), m.ClusterUploadRejects.Total()
	from := tr.mark()

	start := time.Now()
	var results [serveClients]clientResult
	var wg sync.WaitGroup
	for c := range s.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.runClient(tr, s.streams[c])
		}(c)
	}
	wg.Wait()
	p := &phase{flow: time.Since(start)}

	var hitLat []time.Duration
	var bytesTotal int
	var routeCPU, dviCPU time.Duration
	for c, cr := range results {
		p.attempted += len(s.streams[c])
		p.failed += cr.failed
		p.failures = append(p.failures, cr.failures...)
		p.jobs = append(p.jobs, cr.latencies...)
		hitLat = append(hitLat, cr.hits...)
		bytesTotal += cr.bytes
		p.quality.add(cr.quality)
		routeCPU += cr.routeCPU
		dviCPU += cr.dviCPU
	}
	if tr == nil {
		return p
	}

	ls := tr.stats(from)
	l := map[string]metric{}
	for name, v := range s.rec.total() {
		l[name] = metric{v, "count"}
	}
	l["router.run_s"] = metric{routeCPU.Seconds(), "s"}
	l["dvi.heuristic_s"] = metric{dviCPU.Seconds(), "s"}
	l["service.submit_ms"] = metric{ls.medianMS("service.submit"), "ms"}
	l["service.queue_wait_ms"] = metric{ms(quantile(queueWaits(ls.spans), 0.5)), "ms"}
	l["service.exec_ms"] = metric{ls.medianMS("service.exec"), "ms"}
	l["service.hit_ms"] = metric{ms(quantile(hitLat, 0.5)), "ms"}
	l["service.result_ms"] = metric{ls.medianMS("service.result"), "ms"}
	l["service.result_bytes"] = metric{float64(bytesTotal) / float64(max(1, len(p.jobs))), "bytes"}
	l["service.cache_hits"] = metric{float64(m.CacheHits.Load() - hits0), "count"}
	l["service.cache_misses"] = metric{float64(m.CacheMisses.Load() - misses0), "count"}
	l["service.rejected"] = metric{float64(m.Rejected.Load() - rejected0), "count"}
	l["service.planned_repeats"] = metric{float64(s.repeats), "count"}
	l["cluster.pull_ms"] = metric{ls.medianMS("cluster.pull"), "ms"}
	l["cluster.upload_ms"] = metric{ls.medianMS("cluster.upload"), "ms"}
	l["cluster.validate_ms"] = metric{ls.medianMS("coordinator.result"), "ms"}
	l["cluster.heartbeats"] = metric{ls.count("cluster.heartbeat"), "count"}
	l["cluster.requeues"] = metric{float64(m.ClusterRequeues.Load() - requeues0), "count"}
	l["cluster.upload_rejects"] = metric{float64(m.ClusterUploadRejects.Total() - rejects0), "count"}
	p.perLayer = l
	return p
}

// queueWaits matches each job's first submission to its execution by
// netlist name: the wait runs from the end of the service's submit
// handler to the start of the worker's run.
func queueWaits(spans []span) []time.Duration {
	submitted := map[string]time.Duration{}
	for _, s := range spans {
		if _, seen := submitted[s.Op]; s.Name == "service.submit" && !seen {
			submitted[s.Op] = s.End
		}
	}
	var waits []time.Duration
	for _, s := range spans {
		if end, ok := submitted[s.Op]; ok && s.Name == "service.exec" {
			waits = append(waits, s.Start-end)
		}
	}
	return waits
}

// execRecorder keeps each executed job's work counters by netlist
// name, so a job run twice is counted once.
type execRecorder struct {
	mu     sync.Mutex
	counts map[string]map[string]float64 // guarded by mu
}

func (r *execRecorder) put(name string, c map[string]float64) {
	r.mu.Lock()
	r.counts[name] = c
	r.mu.Unlock()
}

func (r *execRecorder) total() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := map[string]float64{}
	for _, c := range r.counts {
		for k, v := range c {
			t[k] += v
		}
	}
	return t
}

// tracedRun stands in for service.DefaultRun: the same calls in the
// same order, each inside a span, plus the job's work counters.
func tracedRun(tr *tracer, rec *execRecorder) service.RunFunc {
	return func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, arena *router.Arena) (api.Result, error) {
		root := tr.begin("service.exec", -1, nl.Name)
		defer tr.end(root)
		var row bench.Row
		var art *bench.Artifacts
		var err error
		tr.do("bench.run", root, nl.Name, func() { row, art, err = bench.RunContextArena(ctx, nl, spec, arena) })
		if err != nil {
			return api.Result{}, err
		}
		c := map[string]float64{}
		countOp(c, opResult{rt: art.Router, in: art.Instance, sol: art.Solution, rep: art.Verify})
		rec.put(nl.Name, c)
		var res api.Result
		tr.do("service.result", root, nl.Name, func() { res = api.ResultFrom(spec, row, art) })
		tr.do("router.release", root, nl.Name, func() { arena.Release(art.Router) })
		return res, nil
	}
}
