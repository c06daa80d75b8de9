package router

// Property tests for the Dial bucket queue: monotone pop order,
// wraparound addressing (ring index = key mod span), growth/rehash
// under key spreads wider than the ring, and exact pop-sequence
// equality with a reference binary heap under Dijkstra-like traces —
// the canonical (key, rank descending, push sequence) order that fixes
// equal-cost path geometry.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem is a pushed item with its push sequence number.
type refItem struct {
	it  pqItem
	seq int
}

// refLess is the canonical queue order: key, then rank descending,
// then push sequence.
func refLess(a, b refItem) bool {
	if a.it.f != b.it.f {
		return a.it.f < b.it.f
	}
	if a.it.rank != b.it.rank {
		return a.it.rank > b.it.rank
	}
	return a.seq < b.seq
}

// refHeap is the reference queue: a container/heap binary min-heap on
// refLess, sharing no code with the bucket ring.
type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return refLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// runTrace drives the bucket queue and the reference heap with an
// identical random push/pop trace shaped like a search: every pushed
// key is the last popped key plus a bounded non-negative increment
// (the monotone contract Dial's algorithm needs), with a random tie
// rank. It returns the number of times the ring grew.
func runTrace(t *testing.T, trial int, rng *rand.Rand, maxStep int64) int {
	t.Helper()
	var h refHeap
	var q bucketQueue
	q.init(1) // start at the minimum span to force growth

	grows := 0
	lastPop := int64(0)
	pending := 0
	ops := 200 + rng.Intn(800)
	for i := 0; i < ops; i++ {
		if pending == 0 || rng.Intn(3) != 0 {
			f := lastPop + rng.Int63n(maxStep+1)
			it := pqItem{f: f, id: int32(i), rank: uint8(rng.Intn(maxRank + 1))}
			heap.Push(&h, refItem{it, i})
			span := len(q.buckets)
			q.push(it)
			if len(q.buckets) != span {
				grows++
			}
			pending++
			continue
		}
		a, b := heap.Pop(&h).(refItem).it, q.pop()
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
		a, b := heap.Pop(&h).(refItem).it, q.pop()
		pending--
		if a != b {
			t.Fatalf("trial %d drain: heap popped %+v, bucket popped %+v", trial, a, b)
		}
	}
	if q.n != 0 || h.Len() != 0 {
		t.Fatalf("trial %d: leftovers: bucket %d, heap %d", trial, q.n, h.Len())
	}
	return grows
}

// TestBucketQueueMatchesHeap: the bucket queue pops the exact item
// sequence (key, rank descending, push order) of the reference heap
// for any Dijkstra-like trace, across ring growth.
func TestBucketQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		// Narrow and wide key steps: ties-heavy and growth-heavy.
		maxStep := int64(1 + rng.Intn(5))
		if trial%3 == 0 {
			maxStep = int64(50 + rng.Intn(5000))
		}
		if runTrace(t, trial, rng, maxStep) == 0 {
			t.Fatalf("trial %d never grew the ring", trial)
		}
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
// still pop highest rank first, and in push order within a rank,
// after it.
func TestBucketQueueGrowPreservesFIFO(t *testing.T) {
	var q bucketQueue
	q.init(4)
	for i := 0; i < 12; i++ {
		q.push(pqItem{f: 3, id: int32(i), rank: uint8(i % 3)})
	}
	q.push(pqItem{f: 100000, id: 99}) // forces a large grow
	want := []int32{2, 5, 8, 11, 1, 4, 7, 10, 0, 3, 6, 9}
	for i, id := range want {
		it := q.pop()
		if it.f != 3 || it.id != id {
			t.Fatalf("pop %d: got (f=%d id=%d), want (3, %d)", i, it.f, it.id, id)
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
			q.push(pqItem{f: last, id: int32(i), rank: uint8(rng.Intn(maxRank + 1))})
		}
		// Drain a random prefix, then reset mid-flight.
		for i := rng.Intn(n + 1); i > 0; i-- {
			q.pop()
		}
		q.reset()
		if q.n != 0 {
			t.Fatalf("round %d: n=%d after reset", round, q.n)
		}
		for i, b := range q.buckets {
			for _, l := range b {
				if len(l.items) != 0 || l.head != 0 || q.live[i] != 0 {
					t.Fatalf("round %d: dirty bucket survived reset", round)
				}
			}
		}
	}
}
