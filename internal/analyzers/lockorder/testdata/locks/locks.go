// Package lockfixture exercises the lockorder analyzer: two mutexes
// acquired in both orders (a cycle, one order held by a deferred
// unlock), a transitive acquisition through a callee fact, a goroutine
// launch that orders nothing, and the unlock-validate-relock window
// pattern. guarded.go holds the `guarded by` access cases.
package lockfixture

import "sync"

// A owns jobs.
type A struct {
	mu sync.Mutex
	// jobs is guarded by mu.
	jobs map[string]*Job
}

// B is a second lock domain.
type B struct {
	mu sync.Mutex
	n  int
}

// Job is the guarded record.
type Job struct {
	ID   string
	done chan struct{}
}

var (
	a A
	b B
)

func lockAB() {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "lock-order cycle"
	b.n++
	b.mu.Unlock()
}

func lockBA() {
	b.mu.Lock()
	a.mu.Lock()
	a.jobs = nil
	a.mu.Unlock()
	b.mu.Unlock()
}

// lockB only touches b; callers holding a.mu inherit the a->b edge
// through lockB's exported acquires fact.
func lockB() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func transitiveAB() {
	a.mu.Lock()
	lockB()
	a.mu.Unlock()
}

// C is a third lock domain, acquired inside b.mu.
type C struct{ mu sync.Mutex }

var c C

func lockBC() {
	b.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	b.mu.Unlock()
}

// spawnLockB starts lockB on a goroutine of its own, which does not
// run under the caller's locks: spawnLockB acquires nothing.
func spawnLockB() { go lockB() }

// spawnUnderC holds c.mu across both launches; neither orders b.mu
// after c.mu, so nothing closes a cycle with lockBC.
func spawnUnderC() {
	c.mu.Lock()
	go lockB()
	spawnLockB()
	c.mu.Unlock()
}

// --- unlocked-window misuse (flagged) ---

func sink(*Job)      {}
func sinkStr(string) {}

func windowUse(key string) {
	a.mu.Lock()
	j := a.jobs[key]
	a.mu.Unlock()
	sink(j) // want "unlocked window"
}

// windowRange ranges over guarded state: each value derives from it,
// and the body uses one in an unlocked window.
func windowRange() {
	a.mu.Lock()
	for _, j := range a.jobs {
		a.mu.Unlock()
		sink(j) // want "unlocked window"
		a.mu.Lock()
	}
	a.mu.Unlock()
}

// --- sanctioned (clean) ---

// windowRelock re-reads under the lock: the canonical fix.
func windowRelock(key string) {
	a.mu.Lock()
	j := a.jobs[key]
	_ = j
	a.mu.Unlock()
	a.mu.Lock()
	j = a.jobs[key]
	sink(j)
	a.mu.Unlock()
}

// windowChannel snapshots a channel; channels are synchronization
// points and exempt from derived tracking.
func windowChannel(key string) {
	a.mu.Lock()
	ch := a.jobs[key].done
	a.mu.Unlock()
	<-ch
}

// windowValueCopy copies a plain string out; value copies are safe.
func windowValueCopy(key string) {
	a.mu.Lock()
	id := a.jobs[key].ID
	a.mu.Unlock()
	sinkStr(id)
}

func windowSuppressed(key string) {
	a.mu.Lock()
	j := a.jobs[key]
	a.mu.Unlock()
	//sadplint:ignore lockorder fixture demonstrates a justified suppression
	sink(j)
}
