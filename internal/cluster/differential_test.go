package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/service/api"
)

// The cluster's one invariant: for any job set, results are
// byte-identical across standalone, 1-worker and N-worker topologies —
// including when a worker dies mid-suite and its jobs are re-placed
// via lease expiry. The Solution payload (every net's routed paths
// and the DVI assignment) is a pure function of input and spec, so it
// is compared byte-for-byte; the timing fields of Row are excluded by
// comparing the semantic fields individually.

// outcome is the timing-free projection of one job's result.
type outcome struct {
	WL, Vias, DV, UV int
	InsertedVias     int
	VerifyOk         bool
	Solution         string
}

func diffSpec() bench.RunSpec {
	return bench.RunSpec{
		Scheme:          coloring.SIM,
		ConsiderDVI:     true,
		ConsiderTPL:     true,
		Method:          bench.HeurDVI,
		Verify:          true,
		IncludeSolution: true,
	}
}

// diffSuite is the differential job set: the tiny suite plus its
// multi-pin counterpart, so every topology also routes k-pin nets
// through the Steiner decomposition (and the RunSpec for them round
// trips over the cluster wire format).
func diffSuite() []bench.Circuit {
	return append(bench.TinySuite(), bench.TinyMultiPinSuite()...)
}

// submitSuite submits every circuit under the spec and returns job ids
// by circuit name.
func submitSuite(t *testing.T, ts *httptest.Server, circuits []bench.Circuit, spec bench.RunSpec) map[string]string {
	t.Helper()
	ids := make(map[string]string, len(circuits))
	for _, c := range circuits {
		nl := bench.Generate(c)
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatal(err)
		}
		sr := submit(t, ts, buf.String(), spec)
		ids[c.Name] = sr.ID
	}
	return ids
}

// collectSuite polls every job to completion and projects the
// outcomes.
func collectSuite(t *testing.T, ts *httptest.Server, ids map[string]string) map[string]outcome {
	t.Helper()
	out := make(map[string]outcome, len(ids))
	for name, id := range ids {
		jr := pollTerminal(t, ts, id, 120*time.Second)
		if jr.Status != api.StatusDone {
			t.Fatalf("%s: status %s (%s)", name, jr.Status, jr.Error)
		}
		res, err := jr.DecodeResult()
		if err != nil {
			t.Fatal(err)
		}
		if res.Verify == nil || !res.Verify.Ok {
			t.Fatalf("%s: verification failed: %+v", name, res.Verify)
		}
		if len(res.Solution) == 0 {
			t.Fatalf("%s: no solution payload", name)
		}
		out[name] = outcome{
			WL:           int(res.Row.WL),
			Vias:         int(res.Row.Vias),
			DV:           int(res.Row.DV),
			UV:           int(res.Row.UV),
			InsertedVias: res.InsertedVias,
			VerifyOk:     res.Verify.Ok,
			Solution:     string(res.Solution),
		}
	}
	return out
}

// runSuite is submit + collect in one step.
func runSuite(t *testing.T, ts *httptest.Server, circuits []bench.Circuit, spec bench.RunSpec) map[string]outcome {
	t.Helper()
	return collectSuite(t, ts, submitSuite(t, ts, circuits, spec))
}

func compareOutcomes(t *testing.T, label string, want, got map[string]outcome) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: circuit %s missing", label, name)
		}
		if g.WL != w.WL || g.Vias != w.Vias || g.DV != w.DV || g.UV != w.UV || g.InsertedVias != w.InsertedVias || g.VerifyOk != w.VerifyOk {
			t.Fatalf("%s: %s metrics diverge: got %+v want %+v", label, name, g, w)
		}
		if g.Solution != w.Solution {
			t.Fatalf("%s: %s solution bytes diverge (len %d vs %d)", label, name, len(g.Solution), len(w.Solution))
		}
	}
}

func TestDifferentialTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("real routing flow; skipped in -short")
	}

	// Topology A: standalone — in-process worker pool, the reference.
	sa, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sa.Handler())
	ref := runSuite(t, tsA, diffSuite(), diffSpec())
	tsA.Close()
	sa.Shutdown(context.Background())

	// Topology B: coordinator + 1 worker.
	_, _, tsB := newCluster(t, service.Config{Run: service.DefaultRun}, CoordinatorConfig{})
	startWorker(t, WorkerConfig{Coordinator: tsB.URL, ID: "b1", Slots: 2, Run: service.DefaultRun})
	compareOutcomes(t, "coordinator+1", ref, runSuite(t, tsB, diffSuite(), diffSpec()))

	// Topology C: coordinator + 3 workers, one of which dies holding a
	// job; the lease expires and the job is re-placed on a survivor.
	// The doomed worker runs alone first so it deterministically pulls
	// (and dies with) a job before the survivors join.
	svcC, _, tsC := newCluster(t, service.Config{Run: service.DefaultRun, MaxAttempts: 3}, CoordinatorConfig{
		LeaseTTL:   250 * time.Millisecond,
		SweepEvery: 50 * time.Millisecond,
	})
	inj := fault.New(7)
	inj.Configure("worker.kill", fault.SiteConfig{Times: 1})
	startWorker(t, WorkerConfig{Coordinator: tsC.URL, ID: "c-doomed", Run: service.DefaultRun, Fault: inj})
	idsC := submitSuite(t, tsC, diffSuite(), diffSpec())
	deadline := time.Now().Add(10 * time.Second)
	for inj.Trips("worker.kill") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	startWorker(t, WorkerConfig{Coordinator: tsC.URL, ID: "c2", Run: service.DefaultRun, Slots: 2})
	startWorker(t, WorkerConfig{Coordinator: tsC.URL, ID: "c3", Run: service.DefaultRun, Slots: 2})
	compareOutcomes(t, "coordinator+3/kill", ref, collectSuite(t, tsC, idsC))
	if inj.Trips("worker.kill") != 1 {
		t.Fatalf("kill site trips %d, want 1", inj.Trips("worker.kill"))
	}
	// No job lost, none double-completed.
	if got := svcC.Metrics().Completed.Load(); got != int64(len(ref)) {
		t.Fatalf("completed %d, want %d", got, len(ref))
	}
	if got := svcC.Metrics().ClusterRequeues.Load(); got < 1 {
		t.Fatalf("ClusterRequeues %d, want >= 1 (the killed worker held a job)", got)
	}
}
