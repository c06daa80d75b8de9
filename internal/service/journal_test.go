package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/router"
	"repro/internal/service/api"
)

// stubRun is a fast deterministic RunFunc for journal tests: the flow
// under test is the recovery machinery, not routing.
func stubRun(ctx context.Context, nl *netlist.Netlist, spec bench.RunSpec, _ *router.Arena) (api.Result, error) {
	return api.Result{Spec: spec, Row: bench.Row{CKT: nl.Name, WL: 7, Vias: 3, Routability: 1}}, nil
}

// writeJournal hand-authors a journal file, standing in for the WAL a
// crashed previous life left behind.
func writeJournal(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		rec.V = journalVersion
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, journalFileName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func waitTerminal(t *testing.T, j *job) api.JobResponse {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.id)
	}
	return j.response()
}

// A live submit record (accepted, never started) is re-enqueued on
// boot and driven to completion; the id sequence continues past the
// replayed ids.
func TestReplayCompletesLiveJob(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	key, err := cacheKey(tinyNetlist, spec)
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, journalRecord{Type: recSubmit, ID: "j000007-replayed0000", Key: key, Netlist: tinyNetlist, Spec: &spec})

	s := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	j, ok := s.store.Get("j000007-replayed0000")
	if !ok {
		t.Fatal("replayed job missing from the store")
	}
	jr := waitTerminal(t, j)
	if jr.Status != api.StatusDone {
		t.Fatalf("replayed job status %q (error %q), want done", jr.Status, jr.Error)
	}
	if got := s.metrics.Replayed.Load(); got != 1 {
		t.Fatalf("jobs_replayed_total = %d, want 1", got)
	}

	// The id sequence must not collide with replayed ids.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, sr, _ := doSubmit(t, ts, netlistVariant(1), spec)
	if code != http.StatusAccepted {
		t.Fatalf("post-replay submit answered %d", code)
	}
	if !strings.HasPrefix(sr.ID, "j000008-") {
		t.Fatalf("post-replay id %q, want sequence to continue at j000008", sr.ID)
	}
	pollDone(t, ts, sr.ID)
}

// Terminal journal records restore finished jobs for polling, re-warm
// the cache (except degraded results), and re-arm the quarantine
// registry. A done record without a checksum, as written before done
// records carried one, fails with the fixed verdict and is not cached.
func TestReplayTerminalStates(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	nlDone, nlDeg, nlQuar, nlOld := netlistVariant(10), netlistVariant(11), netlistVariant(12), netlistVariant(13)
	mk := func(text string) string {
		k, err := cacheKey(text, spec)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	res := json.RawMessage(`{"row":{"ckt":"t10","wl":7}}`)
	done := func(id, key string, degraded bool) journalRecord {
		return journalRecord{Type: recDone, ID: id, Key: key, Result: res, Checksum: doneChecksum(id, key, res), Epoch: ResultEpoch, Degraded: degraded}
	}
	writeJournal(t, dir,
		done("j000001-done00000000", mk(nlDone), false),
		done("j000002-degraded0000", mk(nlDeg), true),
		journalRecord{Type: recFailed, ID: "j000003-failed000000", Key: "unused-key", Error: "boom"},
		journalRecord{Type: recQuarantined, ID: "j000004-poison000000", Key: mk(nlQuar), Error: "poison"},
		journalRecord{Type: recDone, ID: "j000005-unchecked000", Key: mk(nlOld), Result: res},
	)
	s := mustNew(t, Config{Workers: 1, QueueSize: 8, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(id string) api.JobResponse {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr api.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}
	if jr := get("j000001-done00000000"); jr.Status != api.StatusDone || !bytes.Equal(jr.Result, res) {
		t.Fatalf("done replay = %+v", jr)
	}
	if jr := get("j000003-failed000000"); jr.Status != api.StatusFailed || jr.Error != "boom" {
		t.Fatalf("failed replay = %+v", jr)
	}
	if jr := get("j000004-poison000000"); jr.Status != api.StatusQuarantined || jr.Error != "poison" {
		t.Fatalf("quarantined replay = %+v", jr)
	}
	if jr := get("j000005-unchecked000"); jr.Status != api.StatusFailed || jr.Error != badDoneRecord {
		t.Fatalf("unchecked done replay = %+v", jr)
	}

	// Full-fidelity done result re-warms the cache: identical payload
	// answers 200 with the byte-identical stored result.
	code, sr, _ := doSubmit(t, ts, nlDone, spec)
	if code != http.StatusOK || !sr.CacheHit {
		t.Fatalf("resubmit of journaled done payload: code %d, cacheHit %v", code, sr.CacheHit)
	}
	// A degraded result must NOT mask a future full-fidelity run.
	code, _, _ = doSubmit(t, ts, nlDeg, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of degraded payload answered %d, want 202 (re-run)", code)
	}
	// A quarantined content address is answered with the verdict.
	code, sr, _ = doSubmit(t, ts, nlQuar, spec)
	if code != http.StatusOK || sr.Status != api.StatusQuarantined || sr.ID != "j000004-poison000000" {
		t.Fatalf("resubmit of quarantined payload = %d %+v", code, sr)
	}
	// An unchecked done result was not cached: its payload routes again.
	code, _, _ = doSubmit(t, ts, nlOld, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of the unchecked done payload answered %d, want 202 (re-run)", code)
	}
}

// A done record of another epoch, or of a build before done records
// carried one, still answers its job's id, but its result is not
// cached: even under a key this build derives, a resubmission routes
// afresh.
func TestReplayStaleEpochNotCached(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	nlOld, nlNone := netlistVariant(30), netlistVariant(31)
	keyOld, _ := cacheKey(nlOld, spec)
	keyNone, _ := cacheKey(nlNone, spec)
	res := json.RawMessage(`{"row":{"ckt":"t30","wl":7}}`)
	writeJournal(t, dir,
		journalRecord{Type: recDone, ID: "j000001-epoch2000000", Key: keyOld, Result: res,
			Checksum: doneChecksum("j000001-epoch2000000", keyOld, res), Epoch: 2},
		journalRecord{Type: recDone, ID: "j000002-noepoch00000", Key: keyNone, Result: res,
			Checksum: doneChecksum("j000002-noepoch00000", keyNone, res)},
	)
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, id := range []string{"j000001-epoch2000000", "j000002-noepoch00000"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil || jr.Status != api.StatusDone || !bytes.Equal(jr.Result, res) {
			t.Fatalf("GET %s = %+v (%v), want done with the journaled result", id, jr, err)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("boot cached %d stale results, want 0", n)
	}
	for _, text := range []string{nlOld, nlNone} {
		if code, sr, _ := doSubmit(t, ts, text, spec); code != http.StatusAccepted || sr.CacheHit {
			t.Fatalf("resubmission answered %d %+v, want 202 (a cache miss)", code, sr)
		}
	}
	if hits, misses := s.metrics.CacheHits.Load(), s.metrics.CacheMisses.Load(); hits != 0 || misses != 2 {
		t.Fatalf("cache hits %d, misses %d; want 0 and 2", hits, misses)
	}

	// Compaction keeps each record's epoch.
	recs, err := readJournal(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0].Epoch != 2 || recs[1].Epoch != 0 {
		t.Fatalf("compacted records %+v, want epochs 2 and 0 kept", recs)
	}
}

// A job whose journal shows MaxAttempts executions with no terminal
// record crashed the daemon that many times: it is failed as
// interrupted, not re-enqueued.
func TestReplayInterruptedAttemptBound(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	key, _ := cacheKey(tinyNetlist, spec)
	writeJournal(t, dir,
		journalRecord{Type: recSubmit, ID: "j000001-interrupted0", Key: key, Netlist: tinyNetlist, Spec: &spec},
		journalRecord{Type: recRunning, ID: "j000001-interrupted0", Key: key, Attempt: 2},
	)
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, MaxAttempts: 2, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	j, ok := s.store.Get("j000001-interrupted0")
	if !ok {
		t.Fatal("interrupted job missing from the store")
	}
	jr := waitTerminal(t, j)
	if jr.Status != api.StatusFailed || !strings.Contains(jr.Error, "interrupted") {
		t.Fatalf("interrupted job = %+v, want failed: interrupted", jr)
	}
	if got := s.metrics.Replayed.Load(); got != 0 {
		t.Fatalf("jobs_replayed_total = %d, want 0", got)
	}
}

// One in-flight attempt below the bound is re-enqueued and completes.
func TestReplayInFlightJobRetries(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	key, _ := cacheKey(tinyNetlist, spec)
	writeJournal(t, dir,
		journalRecord{Type: recSubmit, ID: "j000001-inflight0000", Key: key, Netlist: tinyNetlist, Spec: &spec},
		journalRecord{Type: recRunning, ID: "j000001-inflight0000", Key: key, Attempt: 1},
	)
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, MaxAttempts: 2, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	j, _ := s.store.Get("j000001-inflight0000")
	if j == nil {
		t.Fatal("in-flight job missing from the store")
	}
	if jr := waitTerminal(t, j); jr.Status != api.StatusDone {
		t.Fatalf("in-flight replay = %+v, want done", jr)
	}
	if j.attempts() != 2 {
		t.Fatalf("attempts = %d, want 2 (1 journaled + 1 re-run)", j.attempts())
	}
}

// Dying mid-append can only tear the final line; replay keeps every
// record before it.
func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	key, _ := cacheKey(tinyNetlist, spec)
	writeJournal(t, dir, journalRecord{Type: recSubmit, ID: "j000001-torn00000000", Key: key, Netlist: tinyNetlist, Spec: &spec})
	path := filepath.Join(dir, journalFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"type":"done","id":"j000001-to`) // torn mid-record, no newline
	f.Close()

	s := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
	defer s.Shutdown(context.Background())
	j, ok := s.store.Get("j000001-torn00000000")
	if !ok {
		t.Fatal("job behind the torn tail missing")
	}
	if jr := waitTerminal(t, j); jr.Status != api.StatusDone {
		t.Fatalf("job behind torn tail = %+v, want done", jr)
	}
	// The boot-time compaction rewrote the file: every line is intact.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("post-compaction journal has a bad line %q: %v", line, err)
		}
	}
}

// Boot-time compaction shrinks terminal jobs to one payload-free
// record and keeps live jobs replayable.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	keyA, _ := cacheKey(netlistVariant(20), spec)
	keyB, _ := cacheKey(netlistVariant(21), spec)
	res := json.RawMessage(`{"row":{"ckt":"t20"}}`)
	writeJournal(t, dir,
		journalRecord{Type: recSubmit, ID: "j000001-finished0000", Key: keyA, Netlist: netlistVariant(20), Spec: &spec},
		journalRecord{Type: recRunning, ID: "j000001-finished0000", Key: keyA, Attempt: 1},
		journalRecord{Type: recDone, ID: "j000001-finished0000", Key: keyA, Attempt: 1, Result: res,
			Checksum: doneChecksum("j000001-finished0000", keyA, res), Epoch: ResultEpoch},
		journalRecord{Type: recSubmit, ID: "j000002-live00000000", Key: keyB, Netlist: netlistVariant(21), Spec: &spec},
	)
	recs, err := readJournal(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	compact := compactRecords(foldJournal(recs))
	if len(compact) != 2 {
		t.Fatalf("compacted to %d records, want 2: %+v", len(compact), compact)
	}
	if compact[0].Type != recDone || compact[0].Netlist != "" || compact[0].Checksum != recs[2].Checksum || compact[0].Epoch != recs[2].Epoch {
		t.Fatalf("terminal job compacted to %+v, want payload-free done record keeping its checksum and epoch", compact[0])
	}
	if compact[1].Type != recSubmit || compact[1].Netlist != netlistVariant(21) {
		t.Fatalf("live job compacted to %+v, want full submit record", compact[1])
	}

	// End to end: New compacts on disk and the third life still answers.
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
	j, _ := s.store.Get("j000002-live00000000")
	if j == nil {
		t.Fatal("live job missing after compaction boot")
	}
	waitTerminal(t, j)
	s.Shutdown(context.Background())

	s2 := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
	defer s2.Shutdown(context.Background())
	for _, id := range []string{"j000001-finished0000", "j000002-live00000000"} {
		j, ok := s2.store.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restarts", id)
		}
		if jr := waitTerminal(t, j); jr.Status != api.StatusDone {
			t.Fatalf("job %s = %+v in third life, want done", id, jr)
		}
	}
}

// Two lives of the daemon over the same data dir: a job accepted and
// started by the first life (which never shuts down, standing in for
// kill -9) is completed by the second.
func TestCrashRecoveryAcrossLives(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)

	// Life 1: accepts the job, journals submit+running, then hangs in
	// the flow — and is abandoned without Shutdown, like a crash.
	s1 := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: blockingRun(started, release)})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	spec := bench.RunSpec{Method: bench.HeurDVI}
	code, sr, _ := doSubmit(t, ts1, tinyNetlist, spec)
	if code != http.StatusAccepted {
		t.Fatalf("life-1 submit answered %d", code)
	}
	<-started // the running record is on disk before the flow starts

	// Life 2: replays the journal and finishes the job for real.
	s2 := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
	defer s2.Shutdown(context.Background())
	if got := s2.metrics.Replayed.Load(); got != 1 {
		t.Fatalf("life-2 jobs_replayed_total = %d, want 1", got)
	}
	j, ok := s2.store.Get(sr.ID)
	if !ok {
		t.Fatalf("job %s not replayed into life 2", sr.ID)
	}
	jr := waitTerminal(t, j)
	if jr.Status != api.StatusDone {
		t.Fatalf("recovered job = %+v, want done", jr)
	}
	var res api.Result
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Row.WL != 7 || res.Row.Vias != 3 {
		t.Fatalf("recovered result row = %+v, want the stub's output", res.Row)
	}
}

// A live submit record whose netlist or spec was damaged on disk but
// still parses must not run under its journaled key: every substituted
// byte that keeps the line valid JSON and changes what it decodes to
// leaves the job failed (or, for a line that no longer decodes as a
// record, absent), never done, and nothing cached under the key.
func TestReplayRejectsCorruptSubmission(t *testing.T) {
	spec := bench.RunSpec{Method: bench.HeurDVI}
	key, err := cacheKey(tinyNetlist, spec)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j000001-corrupt00000"
	line, err := json.Marshal(journalRecord{V: journalVersion, Type: recSubmit, ID: id, Key: key, Netlist: tinyNetlist, Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(line, []byte(`"netlist":`))
	end := bytes.LastIndexByte(line, '}') // the spec object ends the line
	if start < 0 {
		t.Fatal("record has no netlist field")
	}
	// substitute returns a copy of line with byte k replaced so the line
	// stays valid JSON and its submission changes, or nil.
	substitute := func(k int) []byte {
		for _, b := range []byte("0123456789xyzabcdefghijklmnopqrstuvw -.") {
			if b == line[k] {
				continue
			}
			mut := append([]byte(nil), line...)
			mut[k] = b
			if !json.Valid(mut) {
				continue
			}
			var rec journalRecord
			if json.Unmarshal(mut, &rec) != nil || rec.Spec == nil {
				return mut // no longer a replayable record
			}
			if k2, err := cacheKey(rec.Netlist, *rec.Spec); err != nil || k2 != key {
				return mut
			}
		}
		return nil
	}
	tried, kept := 0, 0
	for k := start; k < end; k++ {
		mut := substitute(k)
		if mut == nil {
			kept++ // every valid substitute decodes to the same submission
			continue
		}
		tried++
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFileName), append(mut, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir, Run: stubRun})
		if j, ok := s.store.Get(id); ok {
			if jr := waitTerminal(t, j); jr.Status == api.StatusDone {
				t.Errorf("byte %d (%q → %q): corrupt submission replayed to done", k, line[k], mut[k])
			}
		}
		if _, ok := s.cache.Get(key); ok {
			t.Errorf("byte %d (%q → %q): result cached under the journaled key", k, line[k], mut[k])
		}
		s.Shutdown(context.Background())
	}
	t.Logf("%d substitutions replayed, %d positions with no content-changing substitute", tried, kept)
	if tried == 0 {
		t.Fatal("no substitution tried")
	}
}

// TestJournalTortureServesOnlyRecordedBytes journals one done job of
// examples/tiny.net, then boots once from a copy of that journal with
// one bit flipped at each byte offset, and once from a copy truncated
// there. No boot may serve a done job other than the recorded one with
// other than the recorded bytes, or cache anything but those bytes
// under the recorded key.
func TestJournalTortureServesOnlyRecordedBytes(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "examples", "tiny.net"))
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.RunSpec{ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
	key, err := cacheKey(string(text), spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	code, sr, _ := doSubmit(t, ts, string(text), spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit answered %d", code)
	}
	jr := pollDone(t, ts, sr.ID)
	ts.Close()
	s.Shutdown(context.Background())
	if jr.Status != api.StatusDone {
		t.Fatalf("job = %+v, want done", jr)
	}
	wal, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}

	// Boots route nothing: whatever they serve comes from the journal.
	noRun := func(context.Context, *netlist.Netlist, bench.RunSpec, *router.Arena) (api.Result, error) {
		return api.Result{}, errors.New("torture boots do not route")
	}
	bootDir := t.TempDir()
	path := filepath.Join(bootDir, journalFileName)
	served := 0
	boot := func(what string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Workers: 1, QueueSize: 4, DataDir: bootDir, Run: noRun})
		if err != nil {
			t.Fatalf("%s: boot failed: %v", what, err)
		}
		defer s.Shutdown(context.Background())
		s.store.mu.Lock()
		for id, j := range s.store.jobs {
			r := j.response()
			if r.Status != api.StatusDone {
				continue
			}
			if id != sr.ID || !bytes.Equal(r.Result, jr.Result) {
				t.Errorf("%s: boot serves job %s done with %d result bytes, not the recorded job", what, id, len(r.Result))
			} else {
				served++
			}
		}
		s.store.mu.Unlock()
		s.cache.mu.Lock()
		for k, el := range s.cache.items {
			if k != key || !bytes.Equal(el.Value.(*cacheEntry).val, jr.Result) {
				t.Errorf("%s: boot caches %d bytes under key %.12s, not the recorded result", what, len(el.Value.(*cacheEntry).val), k)
			}
		}
		s.cache.mu.Unlock()
	}
	boot("intact journal", wal)
	if served != 1 {
		t.Fatal("the intact journal does not serve its done job")
	}
	for k := range wal {
		flipped := bytes.Clone(wal)
		flipped[k] ^= 1 << (k % 8)
		boot(fmt.Sprintf("bit %d of byte %d flipped", k%8, k), flipped)
		boot(fmt.Sprintf("truncated at byte %d", k), wal[:k])
	}
	t.Logf("%d-byte journal: %d of %d corrupted boots served the recorded job", len(wal), served-1, 2*len(wal))
}
