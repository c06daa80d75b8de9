// The `guarded by` contract: every access to an annotated field holds
// its mutex on every path, and writes hold the write lock.

package lockfixture

import "sync"

type store struct {
	mu    sync.Mutex
	name  string
	items map[string]int // guarded by mu
	hits  int            // guarded by mu
}

func newStore() *store {
	// Fresh locals from a constructor are not shared yet: exempt.
	s := &store{items: map[string]int{}}
	s.hits = 0
	return s
}

// Get holds the lock across both accesses: accepted.
func (s *store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	return s.items[k]
}

// Name is unannotated state: out of scope.
func (s *store) Name() string {
	return s.name
}

// Size reads a guarded field with no lock in sight.
func (s *store) Size() int {
	return len(s.items) // want "s.items is guarded by s.mu but accessed without holding it"
}

// Reset writes without the lock.
func (s *store) Reset() {
	s.items = map[string]int{} // want "s.items is guarded by s.mu but accessed without holding it"
}

// PutEarlyUnlock accesses a guarded field after closing the window.
func (s *store) PutEarlyUnlock(k string, v int) {
	s.mu.Lock()
	s.items[k] = v
	s.mu.Unlock()
	s.hits++ // want "s.hits is guarded by s.mu but accessed without holding it"
}

// branchUnlock models the unlock-and-return idiom: the terminating
// branch discards its unlock, so the fall-through access stays legal.
func (s *store) branchUnlock(k string) int {
	s.mu.Lock()
	if len(s.items) == 0 {
		s.mu.Unlock()
		return 0
	}
	v := s.items[k]
	s.mu.Unlock()
	return v
}

// sizeLocked asserts its caller holds the guard via the *Locked
// naming convention.
func (s *store) sizeLocked() int {
	return len(s.items)
}

// Escape documents an access the heuristics cannot see.
func (s *store) Escape() int {
	//sadplint:ignore lockorder fixture: single-threaded caller owns the store exclusively
	return s.hits
}

type gauge struct {
	mu  sync.RWMutex
	val int // guarded by mu
}

// Read takes the read lock: reads accept either kind.
func (g *gauge) Read() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.val
}

// Bump writes under the read lock.
func (g *gauge) Bump() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.val++ // want "g.val is written while g.mu is only read-locked"
}

// drainBreak leaves the loop through a break that unlocks first: the
// write after the loop runs without the lock.
func (s *store) drainBreak() {
	s.mu.Lock()
	for {
		if len(s.items) == 0 {
			s.mu.Unlock()
			break
		}
		s.items = map[string]int{}
	}
	s.hits = 0 // want "s.hits is guarded by s.mu but accessed without holding it"
}

// countKeys unlocks and continues on an empty key: the next
// iteration's access runs without the lock.
func (s *store) countKeys(keys []string) {
	s.mu.Lock()
	for _, k := range keys {
		s.items[k]++ // want "s.items is guarded by s.mu but accessed without holding it"
		if k == "" {
			s.mu.Unlock()
			continue
		}
	}
	s.mu.Unlock()
}

// lockEitherWay takes the lock on both arms of the if: the access
// after it holds the lock on every path.
func (s *store) lockEitherWay(fast bool) int {
	if fast {
		s.mu.Lock()
	} else {
		s.mu.Lock()
		s.hits++
	}
	defer s.mu.Unlock()
	return len(s.items)
}

// hitsFunc returns a closure built while the lock is held; the
// closure runs later, after the deferred unlock.
func (s *store) hitsFunc() func() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() int {
		return s.hits // want "s.hits is guarded by s.mu but accessed without holding it"
	}
}

// reportHits reads the guarded field for a deferred call under the
// lock: defer evaluates arguments at once, and only the call runs after
// the unlock.
func (s *store) reportHits(report func(int)) {
	s.mu.Lock()
	defer report(s.hits)
	s.mu.Unlock()
}

// setEitherWay read-locks on one arm only: after the join just the
// read lock is certain, so the write is flagged.
func (g *gauge) setEitherWay(shared bool) {
	if shared {
		g.mu.RLock()
		defer g.mu.RUnlock()
	} else {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	g.val = 0 // want "g.val is written while g.mu is only read-locked"
}

type orphan struct {
	n int // guarded by lock // want "names no sibling field"
}

func (o *orphan) N() int { return o.n }
