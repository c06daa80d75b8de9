// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process and prints, as the last line of standard
// output, one JSON object with the workload's metrics:
//
//	perfbench --workload route|dvi-ilp|serve --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) first repeat the untraced timed phase, then replay it
// with every layer call wrapped in a span, and report per-layer
// metrics. Every output the benchmark times is also checked; any
// failed check makes the run exit 1. README.md in this directory
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // scratch directory for journals and traces
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark scenario. prepare builds the inputs and
// starts whatever the timed phase needs; it is repeated to measure
// set-up time, and only the last instance runs.
type workload interface {
	// prepare builds a fresh instance. setup records the set-up's
	// spans; run is the tracer the instance's timed phase will get,
	// for hooks that must be in place before it starts. Both are nil
	// when not tracing.
	prepare(cfg config, setup, run *tracer) (instance, error)
}

type instance interface {
	// timed runs the timed phase once, checks every output, and returns
	// its results. A nil tracer runs the product flow; a tracer replays
	// it layer by layer.
	timed(tr *tracer) *phase
	close()
}

// quality holds the paper's table columns, summed over unique inputs.
type quality struct {
	WL, Vias, DV, UV int
}

// phase is the outcome of one timed phase.
type phase struct {
	flow      time.Duration
	quality   quality
	attempted int
	failed    int
	failures  []string
	jobs      []time.Duration   // per-op or per-job latency
	perLayer  map[string]metric // traced phases only
	allocMB   float64
	allocs    float64
	gcCycles  float64
}

// endToEnd and perLayer name every metric, with its unit, that untraced
// and traced runs report. Layers a workload does not exercise report 0.
var (
	endToEnd = []metricName{
		{"setup_s", "s"}, {"flow_s", "s"}, {"peak_rss_mb", "MB"},
		{"job_p50_ms", "ms"}, {"job_p95_ms", "ms"},
		{"wirelength", "count"}, {"vias", "count"}, {"dead_vias", "count"},
	}
	perLayer = []metricName{
		{"bench.generate_s", "s"}, {"netlist.read_s", "s"},
		{"router.new_s", "s"}, {"router.run_s", "s"},
		{"router.rr_iterations", "count"}, {"router.tpl_rr_iterations", "count"},
		{"router.fvps_resolved", "count"}, {"router.color_fix_iterations", "count"},
		{"router.steiner_nets", "count"}, {"router.steiner_fallbacks", "count"},
		{"dvi.instance_s", "s"}, {"dvi.single_vias", "count"}, {"dvi.candidates", "count"},
		{"dvi.heuristic_s", "s"}, {"dvi.validate_s", "s"},
		{"dvi.ilp_s", "s"}, {"dvi.ilp_build_s", "s"}, {"ilp.search_s", "s"},
		{"ilp.vars", "count"}, {"ilp.constraints", "count"}, {"dvi.ilp_limit_hits", "count"},
		{"verify.solution_s", "s"}, {"verify.violations", "count"},
		{"decompose.masks_s", "s"}, {"decompose.hard_violations", "count"},
		{"service.submit_ms", "ms"}, {"service.queue_wait_ms", "ms"}, {"service.exec_ms", "ms"},
		{"service.hit_ms", "ms"}, {"service.result_ms", "ms"}, {"service.result_bytes", "bytes"},
		{"service.cache_hits", "count"}, {"service.planned_repeats", "count"},
		{"service.cache_misses", "count"}, {"service.rejected", "count"},
		{"cluster.pull_ms", "ms"}, {"cluster.upload_ms", "ms"}, {"cluster.validate_ms", "ms"},
		{"cluster.heartbeats", "count"}, {"cluster.requeues", "count"}, {"cluster.upload_rejects", "count"},
		{"go.alloc_mb", "MB"}, {"go.allocs", "count"}, {"go.gc_cycles", "count"},
		{"uncolorable_vias", "count"}, {"trace.overhead_s", "s"},
	}
)

type metricName struct{ name, unit string }

// complete adds every listed metric the workload did not produce, as
// zero.
func complete(m map[string]metric, names []metricName) {
	for _, n := range names {
		if _, ok := m[n.name]; !ok {
			m[n.name] = metric{0, n.unit}
		}
	}
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

var workloads = map[string]workload{
	"route":   batchWorkload{kind: routeKind},
	"dvi-ilp": batchWorkload{kind: ilpKind},
	"serve":   serveWorkload{},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "route, dvi-ilp or serve")
	fs.Int64Var(&cfg.seed, "seed", 0, "workload seed; 0 reproduces the paper-shaped inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "nominal length of the timed phase; fixes how much work it does")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for journals and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload route|dvi-ilp|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	rep, err := measure(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// measure sets up setupRuns times, runs the timed phase, and assembles
// the report.
func measure(w workload, cfg config, stderr io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var setupTimes []time.Duration
	var inst instance
	var setupTr *tracer
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		if cfg.trace && i == setupRuns-1 {
			setupTr = newTracer()
		}
		start := time.Now()
		var err error
		if inst, err = w.prepare(cfg, setupTr, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
	}
	plain := timedPhase(inst, nil)
	inst.close()
	rep := &report{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	for _, f := range plain.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	if !cfg.trace {
		rep.Metrics["setup_s"] = metric{quantile(setupTimes, 0.5).Seconds(), "s"}
		rep.Metrics["flow_s"] = metric{plain.flow.Seconds(), "s"}
		rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		rep.Metrics["job_p50_ms"] = metric{ms(quantile(plain.jobs, 0.5)), "ms"}
		rep.Metrics["job_p95_ms"] = metric{ms(quantile(plain.jobs, 0.95)), "ms"}
		rep.Metrics["wirelength"] = metric{float64(plain.quality.WL), "count"}
		rep.Metrics["vias"] = metric{float64(plain.quality.Vias), "count"}
		rep.Metrics["dead_vias"] = metric{float64(plain.quality.DV), "count"}
		rep.Correct = plain.failed == 0
		return rep, nil
	}

	// The traced replay runs on a fresh instance of the same inputs so
	// that caches filled by the untraced phase do not serve it.
	tr := newTracer()
	inst, err := w.prepare(cfg, nil, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up for the traced replay: %w", err)
	}
	traced := timedPhase(inst, tr)
	inst.close()
	for _, f := range traced.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL traced: %s\n", f)
	}
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	rep.Correct = rep.Failed == 0
	if traced.quality != plain.quality {
		rep.Correct = false
		fmt.Fprintf(stderr, "perfbench: FAIL traced quality %+v != untraced %+v\n", traced.quality, plain.quality)
	}
	m := traced.perLayer
	sp := setupTr.stats(0)
	m["bench.generate_s"] = metric{sp.seconds("bench.generate"), "s"}
	m["netlist.read_s"] = metric{sp.seconds("netlist.read"), "s"}
	m["go.alloc_mb"] = metric{plain.allocMB, "MB"}
	m["go.allocs"] = metric{plain.allocs, "count"}
	m["go.gc_cycles"] = metric{plain.gcCycles, "count"}
	m["uncolorable_vias"] = metric{float64(plain.quality.UV), "count"}
	m["trace.overhead_s"] = metric{(traced.flow - plain.flow).Seconds(), "s"}
	complete(m, perLayer)
	rep.Metrics = m
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeTrace(path, setupTr, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	return rep, nil
}

// timedPhase runs one timed phase from a collected heap and records
// the Go runtime's allocation and GC deltas over it.
func timedPhase(inst instance, tr *tracer) *phase {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := inst.timed(tr)
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.allocs = float64(after.Mallocs - before.Mallocs)
	p.gcCycles = float64(after.NumGC - before.NumGC)
	return p
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile interpolates linearly between order statistics.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
