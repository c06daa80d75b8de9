package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/service/api"
)

// Concurrent finish/fail/quarantine race for the terminal transition:
// exactly one caller wins, done closes exactly once (a double close
// would panic), and a concurrent reader never observes a torn
// status/result/error combination. Run under -race in CI.
func TestJobTerminalTransitionRace(t *testing.T) {
	result := json.RawMessage(`{"ok":1}`)
	for iter := 0; iter < 300; iter++ {
		j := newJob("j1", "k", nil, bench.RunSpec{})
		var wins atomic.Int32
		stop := make(chan struct{})

		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				r := j.response()
				switch r.Status {
				case api.StatusDone:
					if r.Error != "" || string(r.Result) != `{"ok":1}` {
						t.Errorf("torn done snapshot: error=%q result=%s", r.Error, r.Result)
					}
				case api.StatusFailed:
					if r.Error != "boom" || r.Result != nil {
						t.Errorf("torn failed snapshot: error=%q result=%s", r.Error, r.Result)
					}
				case api.StatusQuarantined:
					if r.Error != "poison" || r.Result != nil {
						t.Errorf("torn quarantined snapshot: error=%q result=%s", r.Error, r.Result)
					}
				case api.StatusQueued, api.StatusRunning:
				default:
					t.Errorf("impossible status %q", r.Status)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()

		var writers sync.WaitGroup
		writers.Add(3)
		go func() {
			defer writers.Done()
			if j.finish(result, false) {
				wins.Add(1)
			}
		}()
		go func() {
			defer writers.Done()
			if j.fail("boom") {
				wins.Add(1)
			}
		}()
		go func() {
			defer writers.Done()
			if j.quarantine("poison") {
				wins.Add(1)
			}
		}()
		writers.Wait()
		close(stop)
		readers.Wait()

		if wins.Load() != 1 {
			t.Fatalf("iteration %d: %d terminal transitions won, want exactly 1", iter, wins.Load())
		}
		if !j.finished() {
			t.Fatalf("iteration %d: done channel not closed after terminal transition", iter)
		}
		// The winner's state stuck: a losing call changed nothing.
		r := j.response()
		switch r.Status {
		case api.StatusDone, api.StatusFailed, api.StatusQuarantined:
		default:
			t.Fatalf("iteration %d: final status %q is not terminal", iter, r.Status)
		}
	}
}

// setRunning after a terminal transition must not resurrect the job.
func TestSetRunningAfterTerminalIsNoOp(t *testing.T) {
	j := newJob("j1", "k", nil, bench.RunSpec{})
	j.fail("boom")
	j.setRunning()
	if r := j.response(); r.Status != api.StatusFailed {
		t.Fatalf("status %q after setRunning on failed job, want failed", r.Status)
	}
}

// Oversized request bodies are rejected with 413 and a JSON error
// before any parsing; the connection stays usable (satellite of the
// -max-request-bytes daemon flag).
func TestOversizedSubmissionRejected(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueSize: 4, MaxBodyBytes: 1 << 10, Run: stubRun})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big, err := json.Marshal(api.SubmitRequest{Netlist: strings.Repeat("x", 4<<10)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(big)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit answered %d, want 413", resp.StatusCode)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("413 body is not the JSON error schema: %v", err)
	}
	if !strings.Contains(er.Error, "exceeds") {
		t.Fatalf("413 error %q does not name the limit", er.Error)
	}

	// A within-limit submission on the same server still works.
	code, sr, _ := doSubmit(t, ts, tinyNetlist, bench.RunSpec{})
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit answered %d", code)
	}
	if jr := pollDone(t, ts, sr.ID); jr.Status != api.StatusDone {
		t.Fatalf("follow-up job = %+v", jr)
	}
}

// A terminal transition is durable before anyone can see it: with the
// journal's append held, a job the seam completes, fails or
// quarantines still reads as running and still holds its single-flight
// key, and reads terminal only once its record is on disk.
func TestTransitionJournaledBeforeVisible(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status api.JobStatus
		decide func(*Server, *Assignment) bool
	}{
		{"complete", api.StatusDone, func(s *Server, a *Assignment) bool {
			return s.Complete(a, json.RawMessage(`{"row":{"ckt":"t"}}`), false, "w1")
		}},
		{"fail", api.StatusFailed, func(s *Server, a *Assignment) bool { return s.Fail(a, "boom", false) }},
		{"quarantine", api.StatusQuarantined, func(s *Server, a *Assignment) bool { return s.Quarantine(a, "poison") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, Config{ExternalExec: true, DataDir: t.TempDir(), Run: stubRun})
			defer s.Shutdown(context.Background())
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			_, sr, _ := doSubmit(t, ts, tinyNetlist, bench.RunSpec{})
			a, err := s.Dequeue(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			s.StartAttempt(a, "w1")

			s.journal.mu.Lock()
			decided := make(chan bool, 1)
			go func() { decided <- tc.decide(s, a) }()
			// Give the transition time to become visible, were it going
			// to before its append.
			time.Sleep(50 * time.Millisecond)
			if jr := getJob(t, ts, sr.ID); jr.Status != api.StatusRunning {
				t.Errorf("with the append held the job reads %q, want running", jr.Status)
			}
			if _, dup, _ := doSubmit(t, ts, tinyNetlist, bench.RunSpec{}); !dup.Deduped || dup.ID != sr.ID {
				t.Errorf("with the append held a resubmission got %+v, want it coalesced onto %s", dup, sr.ID)
			}
			s.journal.mu.Unlock()
			if !<-decided {
				t.Fatal("the transition lost its own gate")
			}
			if jr := getJob(t, ts, sr.ID); jr.Status != tc.status {
				t.Fatalf("after the append the job reads %q, want %q", jr.Status, tc.status)
			}
		})
	}
}

// getJob is one GET /v1/jobs/{id}.
func getJob(t *testing.T, ts *httptest.Server, id string) api.JobResponse {
	t.Helper()
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
