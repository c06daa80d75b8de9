package router

import "math/bits"

// bucketQueue is a Dial-style monotone priority queue over pqItems.
//
// The windowed search's keys are small bounded increments: every edge
// relaxation pushes a key f' ∈ [f, f+Δmax] where f is the key just
// popped and Δmax is the largest single-step key increment (wire step
// + turn + node prices + congestion penalty + the bound's rise; see
// DESIGN.md §12.1 for the bound derivation from Params). Dial's
// structure exploits that: a ring of `span` buckets indexed by
// f mod span, with a cursor that only moves forward. Push is O(1); pop
// amortizes to O(1) because the cursor sweeps each key value once per
// search.
//
// Invariant: every queued key lies in [cur, cur+span). Pushes that
// would widen the in-flight key range beyond the span grow the ring to
// the next power of two and rehash — each old bucket holds exactly one
// key value while the invariant holds, so whole buckets move and the
// order within a key is preserved.
//
// Tie-breaking: a bucket holds one FIFO lane per rank (0..maxRank).
// Items of equal key pop highest rank first, and items of equal key
// and rank pop in push order. The pop sequence is therefore the
// canonical (key, rank descending, push order) order of any push
// trace, which the tests check against a reference binary heap.
type bucketQueue struct {
	buckets []bqBucket
	// live[i] has bit r set while lane r of bucket i holds items: the
	// cursor sweeps this byte array, not the lanes.
	live []uint8
	mask int64 // len(buckets)-1; len is a power of two
	cur  int64 // scan cursor: no queued key is below cur
	maxF int64 // maximum key pushed since the last reset
	n    int   // queued item count
	// dirty records ring slots made non-empty since the last reset so
	// reset clears only what was touched (O(touched), not O(span)).
	// Slots may appear more than once; clearing twice is harmless.
	dirty []int32
}

// maxRank is the largest tie rank; ranks are 0..maxRank.
const maxRank = 3

// bqLane is the FIFO of one (key, rank). head indexes the next item to
// pop; a drained lane normalizes back to (items[:0], head 0), so a lane
// is empty exactly when items is.
type bqLane struct {
	items []pqItem
	head  int
}

// bqBucket is one ring slot: one lane per rank.
type bqBucket [maxRank + 1]bqLane

// init preallocates the ring. A zero-initialized bucketQueue also
// works (the ring grows on first use); init just avoids the first few
// grows when the caller can bound the key spread up front.
func (q *bucketQueue) init(span int64) {
	if len(q.buckets) != 0 || span <= 0 {
		return
	}
	s := int64(1)
	for s < span {
		s <<= 1
	}
	q.buckets = make([]bqBucket, s)
	q.live = make([]uint8, s)
	q.mask = s - 1
}

// reset empties the queue, keeping all lane capacity.
func (q *bucketQueue) reset() {
	for _, i := range q.dirty {
		b := &q.buckets[i]
		for r := range b {
			b[r].items = b[r].items[:0]
			b[r].head = 0
		}
		q.live[i] = 0
	}
	q.dirty = q.dirty[:0]
	q.n = 0
	q.cur = 0
	q.maxF = 0
}

// push enqueues it. Keys must be non-negative and ranks at most
// maxRank (a larger rank fails the lane index); pushing a key below the
// current minimum is legal (the cursor backs up), pushing one beyond
// cur+span grows the ring.
//
//sadplint:hotpath bucket push runs per relaxed edge of the search
func (q *bucketQueue) push(it pqItem) {
	if it.f < 0 {
		panic("router: negative key pushed into bucket queue")
	}
	if q.n == 0 {
		q.cur = it.f
		q.maxF = it.f
	} else {
		if it.f < q.cur {
			q.cur = it.f
		}
		if it.f > q.maxF {
			q.maxF = it.f
		}
	}
	if need := q.maxF - q.cur + 1; need > int64(len(q.buckets)) {
		q.grow(need)
	}
	i := it.f & q.mask
	if q.live[i] == 0 {
		q.dirty = append(q.dirty, int32(i))
	}
	l := &q.buckets[i][it.rank]
	l.items = append(l.items, it)
	q.live[i] |= 1 << it.rank
	q.n++
}

// pop removes and returns the minimum-key item, the highest rank first
// among equal keys and the earliest pushed among equal ranks. The
// caller must ensure the queue is non-empty.
//
//sadplint:hotpath bucket pop runs per expanded node of the search
func (q *bucketQueue) pop() pqItem {
	i := q.cur & q.mask
	for q.live[i] == 0 {
		q.cur++
		i = q.cur & q.mask
	}
	r := bits.Len8(q.live[i]) - 1
	l := &q.buckets[i][r]
	it := l.items[l.head]
	l.head++
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
		q.live[i] &^= 1 << r
	}
	q.n--
	return it
}

// grow rehashes the ring into the next power of two ≥ need. While the
// span invariant holds each non-empty bucket contains a single key
// value, and distinct keys cannot collide in the larger ring (they
// would have to differ by ≥ the new span), so buckets move wholesale
// and every lane keeps its order.
func (q *bucketQueue) grow(need int64) {
	span := int64(64)
	for span < need {
		span <<= 1
	}
	nb := make([]bqBucket, span)
	nlive := make([]uint8, span)
	mask := span - 1
	ndirty := q.dirty[:0]
	for _, i := range q.dirty {
		live := q.live[i]
		if live == 0 {
			continue // drained, or a duplicate dirty entry already moved
		}
		b := &q.buckets[i]
		l := &b[bits.TrailingZeros8(live)]
		ni := l.items[l.head].f & mask
		for r := range b {
			if l := &b[r]; len(l.items) > 0 {
				nb[ni][r].items = append(nb[ni][r].items, l.items[l.head:]...)
			}
		}
		nlive[ni] = live
		// Clear the source so duplicate dirty entries skip it.
		q.live[i] = 0
		ndirty = append(ndirty, int32(ni))
	}
	q.buckets, q.live = nb, nlive
	q.mask = mask
	q.dirty = ndirty
}
