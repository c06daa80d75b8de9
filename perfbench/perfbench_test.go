package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runBench runs the command in-process and decodes its last line.
func runBench(t *testing.T, workload string, seed, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: last line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, stderr.String())
	}
	if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%v: exit %d, correct %v, %d of %d failed\nstderr:\n%s", args, code, rep.Correct, rep.Failed, rep.Attempted, stderr.String())
	}
	return rep
}

// benchmarkFile is the part of BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// wantMetrics checks that a report carries exactly the named metrics,
// each with its unit.
func wantMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: missing %s", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s in %q, want %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// The program's metric lists are the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for _, c := range []struct {
		names []metricName
		want  []struct{ Name, Unit string }
	}{{endToEnd, f.EndToEnd}, {perLayer, f.PerLayer}} {
		m := map[string]metric{}
		complete(m, c.names)
		wantMetrics(t, "metric list", m, c.want)
	}
}

// A short run of each workload emits every named metric with its unit,
// untraced and traced, with no failed operation.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range []string{"dvi-ilp", "serve", "route"} {
		if w == "route" && testing.Short() {
			continue // one round of route takes about 12 s per phase
		}
		wantMetrics(t, w+" untraced", runBench(t, w, "1", "0").Metrics, f.EndToEnd)
		wantMetrics(t, w+" traced", runBench(t, w, "1", "1").Metrics, f.PerLayer)
	}
}

// inputs returns the bytes a prepared instance hands the program.
func inputs(t *testing.T, w string, seed int64) [][]byte {
	t.Helper()
	inst, err := workloads[w].prepare(config{workload: w, seed: seed, seconds: 1, out: t.TempDir()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	var out [][]byte
	switch in := inst.(type) {
	case *batchInstance:
		for _, op := range in.ops {
			out = append(out, op.text)
		}
	case *serveInstance:
		for _, s := range in.streams {
			for _, j := range s {
				out = append(out, j.body)
			}
		}
	}
	return out
}

// The same seed gives byte-identical inputs; another seed gives
// different inputs of the same count.
func TestInputsFollowTheSeed(t *testing.T) {
	for w := range workloads {
		a, b, c := inputs(t, w, 5), inputs(t, w, 5), inputs(t, w, 6)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d, %d and %d inputs", w, len(a), len(b), len(c))
		}
		same := 0
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: seed 5 input %d differs between two set-ups", w, i)
			}
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 5 and 6 give identical inputs", w)
		}
	}
}

// Two runs of one seed report identical quality metrics, and both
// seeds finish with no failed operation.
func TestQualityRepeatsPerSeed(t *testing.T) {
	for _, w := range []string{"dvi-ilp", "serve"} {
		a, b, c := runBench(t, w, "7", "0"), runBench(t, w, "7", "0"), runBench(t, w, "8", "0")
		for _, q := range []string{"wirelength", "vias", "dead_vias"} {
			if a.Metrics[q] != b.Metrics[q] {
				t.Errorf("%s: %s %v then %v on seed 7", w, q, a.Metrics[q].Value, b.Metrics[q].Value)
			}
		}
		if a.Metrics["wirelength"] == c.Metrics["wirelength"] {
			t.Errorf("%s: seeds 7 and 8 route the same wirelength %v", w, a.Metrics["wirelength"].Value)
		}
	}
}

// The checks catch a result that disagrees with the independent
// recount or fails validation.
func TestChecksRejectCorruptedResults(t *testing.T) {
	inst, err := workloads["dvi-ilp"].prepare(config{workload: "dvi-ilp", seconds: 1, out: t.TempDir()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := inst.(*batchInstance).ops[0]
	r, err := runProduct(op)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOp(op, r); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	bad := r
	bad.q.WL++
	if checkOp(op, bad) == nil {
		t.Error("wirelength off by one passed the recount")
	}
	bad = r
	sol := *r.sol
	sol.Inserted = append([]int(nil), r.sol.Inserted...)
	sol.Inserted[0] = len(r.in.Feas[0])
	bad.sol = &sol
	if checkOp(op, bad) == nil {
		t.Error("an out-of-range DVI candidate passed validation")
	}
}

// Self time subtracts the union of a span's children, clipped to the
// span, so overlapping children are not counted twice.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},
		{Name: "child", Start: 90, End: 120, Parent: 0},
		{Name: "open", Start: 60, End: -1, Parent: 0},
	}}
	ls := tr.stats(0)
	if got := ls.self["parent"]; got != 50 {
		t.Errorf("parent self time %v, want 50 (100 minus children covering 10–50 and 90–100)", got)
	}
	if got := ls.self["child"]; got != 20+30+30 {
		t.Errorf("child self time %v, want 80", got)
	}
	if _, ok := ls.durs["open"]; ok {
		t.Error("an unfinished span was counted")
	}
}
