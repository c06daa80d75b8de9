package router

// Property tests for the Dial bucket queue: monotone pop order,
// wraparound addressing (ring index = key mod span), growth/rehash
// under key spreads wider than the ring, and exact pop-sequence
// equality with the legacy binary heap under Dijkstra-like traces —
// the invariant that makes the two backends produce bit-identical
// routing.

import (
	"math/rand"
	"testing"

	"repro/internal/coloring"
)

// dijkstraTrace drives both backends with an identical random
// push/pop trace shaped like a search: every pushed key is the last
// popped key plus a bounded non-negative increment (the monotone
// contract Dial's algorithm needs). Returns false when the trace is
// exhausted.
func runTrace(t *testing.T, trial int, rng *rand.Rand, maxStep int64) {
	t.Helper()
	var h searchScratch // heap backend used directly via hPush/hPop
	var q bucketQueue
	q.init(1) // start at the minimum span to force growth

	seq := uint32(0)
	lastPop := int64(0)
	pending := 0
	ops := 200 + rng.Intn(800)
	for i := 0; i < ops; i++ {
		if pending == 0 || rng.Intn(3) != 0 {
			f := lastPop + rng.Int63n(maxStep+1)
			it := pqItem{f: f, id: int32(i), seq: seq}
			seq++
			h.hPush(it)
			q.push(it)
			pending++
			continue
		}
		a, b := h.hPop(), q.pop()
		pending--
		if a != b {
			t.Fatalf("trial %d op %d: heap popped %+v, bucket popped %+v", trial, i, a, b)
		}
		if a.f < lastPop {
			t.Fatalf("trial %d op %d: pop key decreased: %d after %d", trial, i, a.f, lastPop)
		}
		lastPop = a.f
	}
	for pending > 0 {
		a, b := h.hPop(), q.pop()
		pending--
		if a != b {
			t.Fatalf("trial %d drain: heap popped %+v, bucket popped %+v", trial, a, b)
		}
	}
	if q.n != 0 || len(h.heap) != 0 {
		t.Fatalf("trial %d: leftovers: bucket %d, heap %d", trial, q.n, len(h.heap))
	}
}

// TestBucketQueueMatchesHeap: both backends pop the exact same item
// sequence (key, id and tie-break seq) for any Dijkstra-like trace.
func TestBucketQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		// Narrow and wide key steps: ties-heavy and growth-heavy.
		maxStep := int64(1 + rng.Intn(5))
		if trial%3 == 0 {
			maxStep = int64(50 + rng.Intn(5000))
		}
		runTrace(t, trial, rng, maxStep)
	}
}

// TestBucketQueueWraparound: keys sweep far beyond the ring span, so
// the cursor wraps the ring many times (index = key mod span) while
// pops stay sorted and complete.
func TestBucketQueueWraparound(t *testing.T) {
	var q bucketQueue
	q.init(64)
	rng := rand.New(rand.NewSource(11))
	last := int64(0)
	pushed, popped := 0, 0
	var sum, popSum int64
	for i := 0; i < 20000; i++ {
		if q.n == 0 || rng.Intn(2) == 0 {
			f := last + rng.Int63n(40) // spread < 64: span never grows
			q.push(pqItem{f: f, id: int32(i)})
			sum += f
			pushed++
		} else {
			it := q.pop()
			if it.f < last {
				t.Fatalf("op %d: pop %d below floor %d", i, it.f, last)
			}
			last = it.f
			popSum += it.f
			popped++
		}
	}
	if len(q.buckets) != 64 {
		t.Fatalf("span grew to %d; wraparound was supposed to stay within 64", len(q.buckets))
	}
	for q.n > 0 {
		it := q.pop()
		if it.f < last {
			t.Fatalf("drain: pop %d below floor %d", it.f, last)
		}
		last = it.f
		popSum += it.f
		popped++
	}
	if popped != pushed || popSum != sum {
		t.Fatalf("lost items: pushed %d (keys %d), popped %d (keys %d)", pushed, sum, popped, popSum)
	}
}

// TestBucketQueueGrowPreservesFIFO: a push far beyond the current span
// rehashes the ring; equal-key runs pushed before the growth must
// still pop in push order after it.
func TestBucketQueueGrowPreservesFIFO(t *testing.T) {
	var q bucketQueue
	q.init(4)
	for i := 0; i < 10; i++ {
		q.push(pqItem{f: 3, id: int32(i), seq: uint32(i)})
	}
	q.push(pqItem{f: 100000, id: 99}) // forces a large grow
	for i := 0; i < 10; i++ {
		it := q.pop()
		if it.f != 3 || it.id != int32(i) {
			t.Fatalf("pop %d: got (f=%d id=%d), want (3, %d)", i, it.f, it.id, i)
		}
	}
	if it := q.pop(); it.id != 99 {
		t.Fatalf("final pop: got id %d, want 99", it.id)
	}
	if q.n != 0 {
		t.Fatalf("queue not empty: %d left", q.n)
	}
}

// TestBucketQueueResetReuses: reset must leave a clean queue behind —
// including after growth and partial drains — without clearing more
// than it touched.
func TestBucketQueueResetReuses(t *testing.T) {
	var q bucketQueue
	q.init(8)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		last := int64(0)
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			last += rng.Int63n(200)
			q.push(pqItem{f: last, id: int32(i)})
		}
		// Drain a random prefix, then reset mid-flight.
		for i := rng.Intn(n + 1); i > 0; i-- {
			q.pop()
		}
		q.reset()
		if q.n != 0 {
			t.Fatalf("round %d: n=%d after reset", round, q.n)
		}
		for _, b := range q.buckets {
			if len(b.items) != 0 || b.head != 0 {
				t.Fatalf("round %d: dirty bucket survived reset", round)
			}
		}
	}
}

// TestQueueBackendsBitIdentical: full routing runs (DVI + TPL
// considerations on) under both backends end in the identical outcome
// — the same Run error text (or none), the same stats and the same
// per-net geometry. The comparison covers failed runs as well: seed 21
// exhausts MaxRRIters, and both backends must fail it the same way.
func TestQueueBackendsBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 9, 21} {
		nl := randomNetlist("qdiff", 28, 28, 40, seed)
		run := func(k QueueKind) (*Router, string) {
			rt, err := New(nl, Config{
				Scheme:      coloring.Scheme{Type: coloring.SIM},
				ConsiderDVI: true, ConsiderTPL: true,
				Seed: seed, Queue: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(); err != nil {
				return rt, err.Error()
			}
			return rt, ""
		}
		a, errA := run(BucketQueue)
		b, errB := run(HeapQueue)
		if errA != errB {
			t.Fatalf("seed %d: Run errors differ between backends:\nbucket: %q\nheap:   %q", seed, errA, errB)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("seed %d: stats differ between backends:\nbucket: %+v\nheap:   %+v", seed, a.Stats(), b.Stats())
		}
		for id := range a.Routes() {
			ra, rb := a.Routes()[id], b.Routes()[id]
			if (ra == nil) != (rb == nil) {
				t.Fatalf("seed %d net %d: routed under one backend only", seed, id)
			}
			if ra == nil {
				continue
			}
			pa, pb := ra.PointList(), rb.PointList()
			if len(pa) != len(pb) {
				t.Fatalf("seed %d net %d: point counts differ: %d vs %d", seed, id, len(pa), len(pb))
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("seed %d net %d: point %d differs: %v vs %v", seed, id, i, pa[i], pb[i])
				}
			}
		}
	}
}
