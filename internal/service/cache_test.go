package service

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/router"
)

// mustKey computes the cache key or fails the test; the tests here
// only feed marshalable specs.
func mustKey(t *testing.T, netlistText string, spec bench.RunSpec) string {
	t.Helper()
	k, err := cacheKey(netlistText, spec)
	if err != nil {
		t.Fatalf("cacheKey: %v", err)
	}
	return k
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, nil)
	c.Add("a", json.RawMessage(`1`))
	c.Add("b", json.RawMessage(`2`))
	if _, ok := c.Get("a"); !ok { // promote a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", json.RawMessage(`3`))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite promotion")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	c.Add("c", json.RawMessage(`33`))
	if v, _ := c.Get("c"); string(v) != `33` {
		t.Fatalf("refresh did not update value: %s", v)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	// Pinned content address: journals and caches written by earlier
	// builds of the same ResultEpoch must keep resolving to the same
	// key.
	tiny, err := os.ReadFile("../../examples/tiny.net")
	if err != nil {
		t.Fatal(err)
	}
	pinned := bench.RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true, Method: bench.HeurDVI}
	if got, want := mustKey(t, string(tiny), pinned), "ea7ef59b003aa1ae157421fd760562e79bc93de7f435e9ad584ce5632b0e94f2"; got != want {
		t.Fatalf("tiny.net content address %s, want %s", got, want)
	}

	nl := "netlist t 8 8 2\nnet a 1 1 5 1\n"
	base := bench.RunSpec{Scheme: coloring.SIM, ConsiderDVI: true, Method: bench.HeurDVI}

	defaults := base
	defaults.Params = router.DefaultParams()
	if mustKey(t, nl, base) != mustKey(t, nl, defaults) {
		t.Fatal("zero Params and explicit defaults must share a key")
	}

	heurLimit := base
	heurLimit.ILPTimeLimit = time.Minute
	if mustKey(t, nl, base) != mustKey(t, nl, heurLimit) {
		t.Fatal("ILPTimeLimit must be ignored for non-ILP methods")
	}

	ilpZero := base
	ilpZero.Method = bench.ILPDVI
	ilpTen := ilpZero
	ilpTen.ILPTimeLimit = 10 * time.Minute
	if mustKey(t, nl, ilpZero) != mustKey(t, nl, ilpTen) {
		t.Fatal("ILP zero time limit must normalize to the 10-minute default")
	}
	ilpOther := ilpZero
	ilpOther.ILPTimeLimit = time.Minute
	if mustKey(t, nl, ilpZero) == mustKey(t, nl, ilpOther) {
		t.Fatal("distinct ILP time limits must not share a key")
	}

	sid := base
	sid.Scheme = coloring.SID
	if mustKey(t, nl, base) == mustKey(t, nl, sid) {
		t.Fatal("SIM and SID must not share a key")
	}
	if mustKey(t, nl, base) == mustKey(t, nl+"#\n", base) {
		t.Fatal("different netlist bytes must not share a key")
	}
}

func TestJobStoreEvictsOnlyFinished(t *testing.T) {
	st := newJobStore(2)
	mk := func(i int) *job { return newJob(fmt.Sprintf("j%d", i), "k", nil, bench.RunSpec{}) }
	j1, j2, j3 := mk(1), mk(2), mk(3)
	j1.finish(json.RawMessage(`{}`), false)
	st.Add(j1)
	st.Add(j2)
	st.Add(j3) // over capacity: j1 (finished) goes, live j2/j3 stay
	if _, ok := st.Get("j1"); ok {
		t.Fatal("finished j1 should have been evicted")
	}
	for _, id := range []string{"j2", "j3"} {
		if _, ok := st.Get(id); !ok {
			t.Fatalf("live job %s evicted", id)
		}
	}
}
