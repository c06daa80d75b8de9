// Command sadprouted serves the full SADP-aware routing flow over an
// HTTP JSON API: routing-as-a-service on top of internal/service.
//
// Usage:
//
//	sadprouted [-mode standalone|coordinator|worker]
//	           [-addr :8080] [-queue 64] [-workers 2] [-cache 128]
//	           [-job-timeout 10m] [-drain-timeout 60s] [-addr-file f]
//	           [-data-dir d] [-max-request-bytes n] [-max-attempts 2]
//	           [-quiet] [-pprof-addr 127.0.0.1:6060]
//	           [-coordinator-addr http://host:port] [-worker-id w1]
//	           [-lease-ttl 15s] [-heartbeat-every 1s]
//	           [-verify-uploads] [-reject-budget 3]
//	           [-hedge-multiple 0] [-hedge-min-samples 8]
//	           [-spool-dir d] [-upload-retries 0]
//	           [-chaos latency|corrupt|slow|spool] [-chaos-seed 1]
//
// Modes (see the README "Distributed serving" section):
//
//	standalone  (default) one process routes everything in-process.
//	coordinator owns the public /v1/jobs API, the journal and the
//	            result cache, and shards execution across workers over
//	            /cluster/v1/{pull,result,heartbeat}.
//	worker      pulls jobs from -coordinator-addr and executes them;
//	            -workers sets its concurrent slots.
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /healthz,
// GET /metrics. See the README "Serving" section for a curl
// walkthrough. On SIGTERM/SIGINT the daemon stops accepting
// submissions, drains every accepted job, then exits. With -data-dir
// set, accepted jobs survive a hard crash (kill -9): the journal is
// replayed on restart and unfinished jobs re-run. See the README
// "Crash recovery & degraded modes" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	mode := flag.String("mode", "standalone", "standalone, coordinator or worker")
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port); unused in worker mode")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file (for port-0 runs)")
	queue := flag.Int("queue", 64, "job queue capacity; submissions beyond it get 429")
	workers := flag.Int("workers", 2, "routing worker pool size (worker mode: concurrent slots)")
	cache := flag.Int("cache", 128, "result cache capacity (entries)")
	storedJobs := flag.Int("stored-jobs", 1024, "max finished jobs kept for polling")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job wall-clock limit (0 = none); also caps the DVI ILP budget")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max time to drain in-flight jobs on shutdown before canceling them")
	maxBody := flag.Int64("max-request-bytes", 8<<20, "max request body bytes; larger submissions get 413")
	dataDir := flag.String("data-dir", "", "directory for the durable job journal; empty disables crash recovery")
	maxAttempts := flag.Int("max-attempts", 2, "execution attempts per job before quarantine/interruption")
	quiet := flag.Bool("quiet", false, "suppress per-job log lines")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off); bind to localhost, the profiles expose internals")
	coordAddr := flag.String("coordinator-addr", "", "worker mode: coordinator base URL (http://host:port)")
	workerID := flag.String("worker-id", "", "worker mode: this worker's name (default hostname-pid)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "coordinator mode: job lease TTL; a worker silent this long loses its jobs")
	heartbeatEvery := flag.Duration("heartbeat-every", time.Second, "worker mode: lease renewal period (keep well under -lease-ttl)")
	verifyUploads := flag.Bool("verify-uploads", false, "coordinator mode: run the full independent verifier on every uploaded solution (structural checks are always on)")
	rejectBudget := flag.Int("reject-budget", 0, "coordinator mode: rejected uploads a worker may accumulate before quarantine (0 = default 3; negative = never quarantine)")
	hedgeMultiple := flag.Float64("hedge-multiple", 0, "coordinator mode: hedge jobs running longer than this multiple of the fleet median to a second worker (0 = off)")
	hedgeMinSamples := flag.Int("hedge-min-samples", 0, "coordinator mode: completed jobs required before the median is trusted for hedging (default 8)")
	spoolDir := flag.String("spool-dir", "", "worker mode: durable result spool directory; finished results are fsynced here before upload and replayed after a restart")
	uploadRetries := flag.Int("upload-retries", 0, "worker mode: result upload attempts (0 = default: 5 without -spool-dir, unbounded with; negative = unbounded)")
	chaos := flag.String("chaos", "", "worker mode: arm a chaos preset (latency, corrupt, slow, spool) — testing only")
	chaosSeed := flag.Int64("chaos-seed", 1, "worker mode: seed for the -chaos fault sites and the retry jitter")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}

	if *mode == "worker" {
		wcfg := cluster.WorkerConfig{
			Coordinator:    *coordAddr,
			ID:             *workerID,
			Slots:          *workers,
			HeartbeatEvery: *heartbeatEvery,
			SpoolDir:       *spoolDir,
			UploadRetries:  *uploadRetries,
			RetrySeed:      *chaosSeed,
			Logf:           logf,
		}
		if err := armChaos(*chaos, *chaosSeed, &wcfg); err != nil {
			fmt.Fprintf(os.Stderr, "sadprouted: %v\n", err)
			return 2
		}
		return runWorker(wcfg)
	}
	if *mode != "standalone" && *mode != "coordinator" {
		fmt.Fprintf(os.Stderr, "sadprouted: unknown -mode %q (standalone, coordinator or worker)\n", *mode)
		return 2
	}

	svc, err := service.New(service.Config{
		QueueSize:     *queue,
		Workers:       *workers,
		CacheSize:     *cache,
		MaxStoredJobs: *storedJobs,
		JobTimeout:    *jobTimeout,
		MaxBodyBytes:  *maxBody,
		DataDir:       *dataDir,
		MaxAttempts:   *maxAttempts,
		ExternalExec:  *mode == "coordinator",
		Logf:          logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadprouted: %v\n", err)
		return 1
	}

	handler := svc.Handler()
	var coord *cluster.Coordinator
	if *mode == "coordinator" {
		coord = cluster.NewCoordinator(svc, cluster.CoordinatorConfig{
			LeaseTTL:        *leaseTTL,
			VerifyUploads:   *verifyUploads,
			RejectBudget:    *rejectBudget,
			HedgeMultiple:   *hedgeMultiple,
			HedgeMinSamples: *hedgeMinSamples,
			Logf:            logf,
		})
		handler = coord.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sadprouted: %v\n", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sadprouted: write -addr-file: %v\n", err)
			return 1
		}
	}
	httpSrv := &http.Server{Handler: handler}

	// The profiling endpoints live on their own listener, never on the
	// API port: the API handler is a dedicated mux, so /debug/pprof is
	// unreachable through it even though the pprof import registers on
	// the default mux. Off unless -pprof-addr is set.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sadprouted: pprof listen: %v\n", err)
			return 1
		}
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("sadprouted: pprof server: %v", err)
			}
		}()
		log.Printf("sadprouted: pprof on http://%s/debug/pprof/", pln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("sadprouted: %s listening on %s (queue=%d workers=%d cache=%d)", *mode, ln.Addr(), *queue, *workers, *cache)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "sadprouted: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	log.Printf("sadprouted: shutdown signal, draining jobs (timeout %s)", *drainTimeout)

	// Drain the job queue first so clients can still poll results of
	// in-flight work, then stop the HTTP listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	var drainErr error
	if coord != nil {
		drainErr = coord.Shutdown(drainCtx)
	} else {
		drainErr = svc.Shutdown(drainCtx)
	}
	if drainErr != nil {
		log.Printf("sadprouted: drain incomplete: %v", drainErr)
		code = 1
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		log.Printf("sadprouted: http shutdown: %v", err)
		code = 1
	}
	log.Printf("sadprouted: exit")
	return code
}

// armChaos configures one named fault schedule on a worker config.
// The presets mirror the internal/cluster chaos suite; they exist so
// the shell e2e can drive the same fault classes through real
// processes.
func armChaos(preset string, seed int64, cfg *cluster.WorkerConfig) error {
	if preset == "" {
		return nil
	}
	inj := fault.New(seed)
	switch preset {
	case "latency":
		// A slow, duplicating link: delayed pulls and result uploads,
		// with some uploads delivered twice.
		inj.Configure("rpc.latency:"+cluster.PathPull, fault.SiteConfig{Times: -1, Prob: 0.3})
		inj.Configure("rpc.latency:"+cluster.PathResult, fault.SiteConfig{Times: -1, Prob: 0.5})
		inj.Configure("rpc.dup:"+cluster.PathResult, fault.SiteConfig{Times: -1, Prob: 0.5})
		cfg.Client = &http.Client{Transport: &fault.Transport{Injector: inj, Latency: 50 * time.Millisecond}}
	case "corrupt":
		// Two one-off wire flips on result uploads, after the first
		// clean one; the coordinator's validator must catch both.
		inj.Configure("rpc.corrupt:"+cluster.PathResult, fault.SiteConfig{After: 1, Times: 2})
		cfg.Client = &http.Client{Transport: &fault.Transport{Injector: inj}}
	case "slow":
		// A straggling box: half the jobs stall before running, the
		// hedging sweeper's target.
		inj.Configure("worker.slow", fault.SiteConfig{Times: -1, Prob: 0.5})
		cfg.Fault = inj
		cfg.SlowDelay = 2 * time.Second
	case "spool":
		// Die once in the spool-to-upload window; the next run of the
		// same worker (same -spool-dir) must replay the result.
		if cfg.SpoolDir == "" {
			return fmt.Errorf("-chaos spool requires -spool-dir")
		}
		inj.Configure("spool.crash", fault.SiteConfig{Times: 1})
		cfg.Fault = inj
	default:
		return fmt.Errorf("unknown -chaos preset %q (latency, corrupt, slow, spool)", preset)
	}
	return nil
}

// runWorker runs the headless pull-execute client until SIGTERM. A
// signal lets the current jobs finish and upload before exiting.
func runWorker(cfg cluster.WorkerConfig) int {
	if cfg.Coordinator == "" {
		fmt.Fprintln(os.Stderr, "sadprouted: -mode worker requires -coordinator-addr")
		return 2
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	w := cluster.NewWorker(cfg)
	log.Printf("sadprouted: worker %s pulling from %s (slots=%d)", cfg.ID, cfg.Coordinator, cfg.Slots)
	err := w.Run(ctx)
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "sadprouted: worker: %v\n", err)
		return 1
	}
	log.Printf("sadprouted: worker %s exit", cfg.ID)
	return 0
}
