package router

// bucketQueue is a Dial-style monotone priority queue over pqItems.
//
// The windowed search's keys are small bounded increments: every edge
// relaxation pushes a key f' ∈ [f, f+Δmax] where f is the key just
// popped and Δmax is the largest single-step cost (wire step + turn +
// node prices + congestion penalty; see DESIGN.md §12 for the bound
// derivation from Params). Dial's structure exploits that: a ring of
// `span` FIFO buckets indexed by f mod span, with a cursor that only
// moves forward. Push is O(1); pop amortizes to O(1) because the
// cursor sweeps each key value once per search.
//
// Invariant: every queued key lies in [cur, cur+span). Pushes that
// would widen the in-flight key range beyond the span grow the ring to
// the next power of two and rehash — each old bucket holds exactly one
// key value while the invariant holds, so whole buckets move and FIFO
// order within a key is preserved.
//
// Tie-breaking: items of equal key pop in push order (the per-bucket
// FIFO), i.e. in increasing pqItem.seq. The pop sequence is therefore
// the canonical (key, seq) order of any push trace, which the tests
// check against a reference binary heap.
type bucketQueue struct {
	buckets []bqBucket
	mask    int64 // len(buckets)-1; len is a power of two
	cur     int64 // scan cursor: no queued key is below cur
	maxF    int64 // maximum key pushed since the last reset
	n       int   // queued item count
	// dirty records ring slots made non-empty since the last reset so
	// reset clears only what was touched (O(touched), not O(span)).
	// Slots may appear more than once; clearing twice is harmless.
	dirty []int32
}

// bqBucket is one ring slot: a FIFO of equal-key items. head indexes
// the next item to pop; fully drained buckets normalize back to
// (items[:0], head 0) so a clean bucket has exactly one representation.
type bqBucket struct {
	items []pqItem
	head  int
}

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
	q.mask = s - 1
}

// reset empties the queue, keeping all bucket capacity.
func (q *bucketQueue) reset() {
	for _, i := range q.dirty {
		b := &q.buckets[i]
		b.items = b.items[:0]
		b.head = 0
	}
	q.dirty = q.dirty[:0]
	q.n = 0
	q.cur = 0
	q.maxF = 0
}

// push enqueues it. Keys must be non-negative; pushing a key below the
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
	b := &q.buckets[i]
	if b.head == len(b.items) {
		// Empty (possibly drained) bucket comes live: normalize and
		// record it for reset.
		b.items = b.items[:0]
		b.head = 0
		q.dirty = append(q.dirty, int32(i))
	}
	b.items = append(b.items, it)
	q.n++
}

// pop removes and returns the minimum-key item (FIFO among equal
// keys). The caller must ensure the queue is non-empty.
//
//sadplint:hotpath bucket pop runs per expanded node of the search
func (q *bucketQueue) pop() pqItem {
	b := &q.buckets[q.cur&q.mask]
	for b.head == len(b.items) {
		q.cur++
		b = &q.buckets[q.cur&q.mask]
	}
	it := b.items[b.head]
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	q.n--
	return it
}

// grow rehashes the ring into the next power of two ≥ need. While the
// span invariant holds each non-empty bucket contains a single key
// value, and distinct keys cannot collide in the larger ring (they
// would have to differ by ≥ the new span), so buckets move wholesale
// and per-key FIFO order is untouched.
func (q *bucketQueue) grow(need int64) {
	span := int64(64)
	for span < need {
		span <<= 1
	}
	nb := make([]bqBucket, span)
	mask := span - 1
	ndirty := q.dirty[:0]
	for _, i := range q.dirty {
		b := &q.buckets[i]
		if b.head == len(b.items) {
			continue // drained, or a duplicate dirty entry already moved
		}
		ni := b.items[b.head].f & mask
		dst := &nb[ni]
		dst.items = append(dst.items, b.items[b.head:]...)
		ndirty = append(ndirty, int32(ni))
		// Clear the source so duplicate dirty entries skip it.
		b.items = b.items[:0]
		b.head = 0
	}
	q.buckets = nb
	q.mask = mask
	q.dirty = ndirty
}
