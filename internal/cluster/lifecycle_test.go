package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/service/api"
)

// The placement differential: standalone and cluster serving drive a
// job through one lifecycle, so the same scripted jobs end the same
// way under either placer — status, verdict, attempts, journal and
// counters alike.

// scriptedJobs name what each job's flow does: ok completes, fail
// returns an error, slow outlives the job timeout, poison panics on
// every attempt and flaky panics on its first attempt only.
var scriptedJobs = []string{"ok", "fail", "slow", "poison", "flaky"}

func scriptedNetlist(name string) string {
	return fmt.Sprintf("netlist %s 8 8 2\nnet a 1 1 5 1\nnet b 2 3 2 6\n", name)
}

// scriptedRun returns the flow of the scripted jobs, with attempt
// counts of its own.
func scriptedRun() service.RunFunc {
	var mu sync.Mutex
	runs := make(map[string]int)
	return func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, a *router.Arena) (api.Result, error) {
		mu.Lock()
		runs[nl.Name]++
		n := runs[nl.Name]
		mu.Unlock()
		switch {
		case nl.Name == "fail":
			return api.Result{}, errors.New("scripted flow error")
		case nl.Name == "slow":
			<-ctx.Done()
			return api.Result{}, ctx.Err()
		case nl.Name == "poison", nl.Name == "flaky" && n == 1:
			panic("scripted panic")
		}
		return stubRun(ctx, nl, spec, a)
	}
}

// lifecycleRow is one job's end state under one placer.
type lifecycleRow struct {
	Status api.JobStatus
	// Verdict is the first line of the job's error text; Stack reports
	// whether a redacted stack follows it (the goroutine ids and frames
	// below it differ between placers).
	Verdict string
	Stack   bool
	// Records lists the job's journal records as type@attempt.
	Records []string
	// Deltas of routed, completed, failed, canceled, quarantined and
	// panics over the job's life.
	Deltas [6]int64
}

func lifecycleCounters(m *service.Metrics) [6]int64 {
	return [6]int64{m.Routed.Load(), m.Completed.Load(), m.Failed.Load(), m.Canceled.Load(), m.Quarantined.Load(), m.Panics.Load()}
}

// journalRecords reads one job's records from a data dir's journal.
func journalRecords(t *testing.T, dir, id string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec struct {
			Type    string `json:"type"`
			ID      string `json:"id"`
			Attempt int    `json:"attempt"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if rec.ID == id {
			out = append(out, fmt.Sprintf("%s@%d", rec.Type, rec.Attempt))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// lifecycleRows runs the scripted jobs one at a time against a server
// and records each one's end state.
func lifecycleRows(t *testing.T, ts *httptest.Server, m *service.Metrics, dir string) map[string]lifecycleRow {
	t.Helper()
	rows := make(map[string]lifecycleRow, len(scriptedJobs))
	for _, name := range scriptedJobs {
		before := lifecycleCounters(m)
		sr := submit(t, ts, scriptedNetlist(name), bench.RunSpec{})
		jr := pollTerminal(t, ts, sr.ID, 10*time.Second)
		row := lifecycleRow{
			Status:  jr.Status,
			Verdict: strings.SplitN(jr.Error, "\n", 2)[0],
			Stack:   strings.Contains(jr.Error, "\ngoroutine "),
			Records: journalRecords(t, dir, sr.ID),
			Deltas:  lifecycleCounters(m),
		}
		for i := range row.Deltas {
			row.Deltas[i] -= before[i]
		}
		rows[name] = row
	}
	return rows
}

func TestPlacementDifferential(t *testing.T) {
	cfg := service.Config{MaxAttempts: 2, JobTimeout: 100 * time.Millisecond}

	dirA := t.TempDir()
	sa := cfg
	sa.Workers, sa.DataDir, sa.Run = 1, dirA, scriptedRun()
	svcA, err := service.New(sa)
	if err != nil {
		t.Fatal(err)
	}
	defer svcA.Shutdown(context.Background())
	tsA := httptest.NewServer(svcA.Handler())
	defer tsA.Close()
	standalone := lifecycleRows(t, tsA, svcA.Metrics(), dirA)

	dirB := t.TempDir()
	sb := cfg
	sb.DataDir = dirB
	svcB, _, tsB := newCluster(t, sb, CoordinatorConfig{})
	startWorker(t, WorkerConfig{Coordinator: tsB.URL, ID: "w1", Run: scriptedRun()})
	cluster := lifecycleRows(t, tsB, svcB.Metrics(), dirB)

	for _, name := range scriptedJobs {
		a, b := standalone[name], cluster[name]
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s:\n standalone %+v\n cluster    %+v", name, a, b)
		}
	}
	// The script must reach every terminal state, or it proves little.
	for name, want := range map[string]api.JobStatus{
		"ok": api.StatusDone, "fail": api.StatusFailed, "slow": api.StatusFailed,
		"poison": api.StatusQuarantined, "flaky": api.StatusDone,
	} {
		if got := standalone[name].Status; got != want {
			t.Errorf("%s: standalone status %q, want %q", name, got, want)
		}
	}
}

// A running job counts in sadprouted_jobs_inflight under either
// placer, and stops counting once it settles.
func TestInflightGaugeUnderEitherPlacer(t *testing.T) {
	gauge := func(ts *httptest.Server) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "sadprouted_jobs_inflight ") {
				return line
			}
		}
		t.Fatalf("no in-flight gauge in:\n%s", body)
		return ""
	}
	held := func() (service.RunFunc, chan struct{}, chan struct{}) {
		started, release := make(chan struct{}, 1), make(chan struct{})
		return func(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, a *router.Arena) (api.Result, error) {
			started <- struct{}{}
			<-release
			return stubRun(ctx, nl, spec, a)
		}, started, release
	}
	check := func(name string, ts *httptest.Server, started, release chan struct{}) {
		t.Helper()
		sr := submit(t, ts, tinyNetlist, bench.RunSpec{})
		<-started
		if got := gauge(ts); got != "sadprouted_jobs_inflight 1" {
			t.Errorf("%s, job running: %q, want 1", name, got)
		}
		close(release)
		pollTerminal(t, ts, sr.ID, 10*time.Second)
		if got := gauge(ts); got != "sadprouted_jobs_inflight 0" {
			t.Errorf("%s, job done: %q, want 0", name, got)
		}
	}

	run, started, release := held()
	svc, err := service.New(service.Config{Workers: 1, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	check("standalone", ts, started, release)

	run, started, release = held()
	_, _, tsC := newCluster(t, service.Config{}, CoordinatorConfig{})
	startWorker(t, WorkerConfig{Coordinator: tsC.URL, ID: "w1", Run: run})
	check("cluster", tsC, started, release)
}
