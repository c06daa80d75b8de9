package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// span is one timed call into a layer. Start and End are offsets from
// the tracer's epoch; Parent indexes the enclosing span (-1 for a
// root); Op names the benchmark op or service job the span serves.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     string        `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs skip tracing: every
// method is a no-op on nil.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, op string, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

// mark returns the current span count; spans recorded later belong to
// whatever phase began at the mark.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeTrace stores the set-up's and the timed phase's spans as JSON.
func writeTrace(path string, setup, timed *tracer) error {
	b, err := json.Marshal(map[string][]span{"setup": setup.all(), "timed": timed.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStats summarizes the closed spans recorded since a mark, by
// span name.
type layerStats struct {
	self  map[string]time.Duration   // summed self time
	durs  map[string][]time.Duration // every span's full duration
	spans []span
}

// stats computes per-name self time: a span's duration minus the part
// of it that its child spans cover (children may overlap, so their
// union is subtracted, clipped to the parent).
func (t *tracer) stats(from int) layerStats {
	spans := t.all()
	children := make(map[int][]int)
	for i := from; i < len(spans); i++ {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	ls := layerStats{self: map[string]time.Duration{}, durs: map[string][]time.Duration{}, spans: spans[from:]}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		ls.durs[s.Name] = append(ls.durs[s.Name], d)
		ls.self[s.Name] += d - covered(spans, children[i], s.Start, s.End)
	}
	return ls
}

// covered returns how much of [lo, hi] the union of the given spans
// covers.
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if spans[id].End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func (ls layerStats) seconds(name string) float64 { return ls.self[name].Seconds() }

// medianMS is the median full duration of the named spans.
func (ls layerStats) medianMS(name string) float64 {
	return ms(quantile(ls.durs[name], 0.5))
}

func (ls layerStats) count(name string) float64 { return float64(len(ls.durs[name])) }

// tracedTransport times the worker's RPCs: the span runs from the
// request until the response body is closed.
type tracedTransport struct {
	tr     *tracer
	worker string
	base   http.RoundTripper
}

var rpcSpanNames = map[string]string{
	cluster.PathPull:      "cluster.pull",
	cluster.PathResult:    "cluster.upload",
	cluster.PathHeartbeat: "cluster.heartbeat",
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, ok := rpcSpanNames[req.URL.Path]
	if !ok {
		name = "cluster.rpc"
	}
	id := t.tr.begin(name, -1, t.worker)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler records one span per request the coordinator serves.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, op := "coordinator.other", r.URL.Path
		switch {
		case r.URL.Path == cluster.PathPull:
			name = "coordinator.pull"
		case r.URL.Path == cluster.PathResult:
			name = "coordinator.result"
		case r.URL.Path == cluster.PathHeartbeat:
			name = "coordinator.heartbeat"
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			// Name the span after the submitted netlist, so queue waits
			// can be matched to the worker's run of the same job.
			name = "service.submit"
			if b, err := io.ReadAll(r.Body); err == nil {
				op = netlistName(b)
				r.Body = io.NopCloser(bytes.NewReader(b))
			}
		case r.Method == http.MethodGet:
			name = "service.get"
		}
		id := tr.begin(name, -1, op)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// netlistName extracts the circuit name from a submit body, which
// starts {"netlist":"netlist <name> ...
func netlistName(body []byte) string {
	const prefix = `{"netlist":"netlist `
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return ""
	}
	rest := body[len(prefix):]
	if i := bytes.IndexByte(rest, ' '); i >= 0 {
		return string(rest[:i])
	}
	return ""
}
