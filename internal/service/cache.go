package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/router"
)

// resultCache is a content-addressed LRU over marshaled api.Result
// payloads. Storing the marshaled bytes (rather than the struct)
// makes cache replays byte-identical to the first response by
// construction.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // guarded by mu; front = most recently used
	items map[string]*list.Element // guarded by mu
	fault *fault.Injector
}

type cacheEntry struct {
	key string
	val json.RawMessage
}

func newResultCache(max int, flt *fault.Injector) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element), fault: flt}
}

// Get returns the cached payload and promotes the entry. A tripped
// "cache.get" fault site degrades the lookup to a miss — the cache is
// an optimization, never a correctness dependency, and the chaos
// suite holds the service to that.
func (c *resultCache) Get(key string) (json.RawMessage, bool) {
	if c.fault.Inject("cache.get") != nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Add inserts (or refreshes) an entry, evicting the least recently
// used beyond the capacity. A tripped "cache.add" site drops the
// insert (a lost cache write, as from a full or failing backing
// store).
func (c *resultCache) Add(key string, val json.RawMessage) {
	if c.max <= 0 {
		return
	}
	if c.fault.Inject("cache.add") != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// Len reports the entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// ResultEpoch names the generation of the code that computes results.
// It is hashed into every content address, so a build whose results
// differ from an earlier build's for some input never serves or
// caches under that build's addresses. Bump it in every change that
// changes a result, the same change that re-records the goldens
// (internal/bench/testdata); TestResultEpochPinsGoldens holds the two
// together. Epoch 1 is every build before the epoch entered the key.
// Epoch 2: the layer-aware A* bound and its tie order.
const ResultEpoch = 2

// cacheKey derives the content address of a submission: a SHA-256
// over ResultEpoch, the raw netlist bytes and a canonicalized spec.
// Normalizations
// mirror what the flow itself does, so specs that cannot produce
// different results share a key:
//   - a zero Params block becomes the Table II defaults;
//   - ILPTimeLimit and ILPNodeLimit are dropped unless the method is
//     the ILP (and a zero time limit becomes
//     bench.DefaultILPTimeLimit, as the flow reads it).
//
// ContentAddress exposes the submission content address to the
// cluster coordinator's upload validator: a worker's result must echo
// a spec that, combined with the job's netlist, re-derives the very
// key the job was accepted under. Any tampering with the echoed spec
// (or a result for the wrong input) changes the address and is
// rejected before it can reach the cache or the journal.
func ContentAddress(netlistText string, spec bench.RunSpec) (string, error) {
	return cacheKey(netlistText, spec)
}

func cacheKey(netlistText string, spec bench.RunSpec) (string, error) {
	norm := spec
	if norm.Params == (router.Params{}) {
		norm.Params = router.DefaultParams()
	}
	if norm.Method != bench.ILPDVI {
		norm.ILPTimeLimit = 0
		norm.ILPNodeLimit = 0
	} else if norm.ILPTimeLimit == 0 {
		norm.ILPTimeLimit = bench.DefaultILPTimeLimit
	}
	specJSON, err := json.Marshal(norm)
	if err != nil {
		// RunSpec is a plain struct of scalars so this should be
		// unreachable — but a request-derived value must never be able
		// to panic the daemon, so the error flows back to the submit
		// path (which answers 400) instead.
		return "", fmt.Errorf("marshal spec: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "epoch %d\x00", ResultEpoch)
	h.Write([]byte(netlistText))
	h.Write([]byte{0})
	h.Write(specJSON)
	return hex.EncodeToString(h.Sum(nil)), nil
}
