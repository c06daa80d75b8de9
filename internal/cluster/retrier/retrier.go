// Package retrier is the cluster's one retry policy: capped
// exponential backoff with deterministic seeded jitter. Every RPC loop
// in internal/cluster (pull, result upload, heartbeat) sleeps through
// it instead of a flat PollInterval, so transient coordinator restarts
// back off politely while a fleet of workers doesn't thundering-herd
// the moment it returns. Each backoff doubles the previous one up to
// the cap, and half of it is randomized away.
//
// Determinism: the jitter stream is a seeded *rand.Rand derived from
// the retrier name and an explicit seed (the same construction the
// fault injector uses), never the global math/rand or the wall clock —
// sadplint/detclock-clean by construction. Two retriers with the same
// name, seed and call sequence produce the same backoff schedule.
//
// Cancellation: every sleep selects on the caller's context, so a
// worker shutting down mid-backoff exits immediately instead of
// blocking in time.Sleep.
package retrier

import (
	"context"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Policy shapes one retry loop. Zero values take the defaults noted.
type Policy struct {
	// Base is the first backoff (default 100ms).
	Base time.Duration
	// Cap bounds any single backoff (default 10s).
	Cap time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 10 * time.Second
	}
	return p
}

// Retrier computes and sleeps backoffs under a Policy. It is safe for
// concurrent use; the jitter stream is serialized under an internal
// lock, so concurrent users interleave draws from one deterministic
// sequence.
type Retrier struct {
	p Policy

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu
}

// New builds a retrier whose jitter derives from (name, seed) — same
// name and seed, same schedule.
func New(name string, seed int64, p Policy) *Retrier {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Retrier{
		p:   p.withDefaults(),
		rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
	}
}

// Backoff returns the sleep before retry attempt n (n >= 2; the first
// attempt has no backoff): uniform in [d/2, d] for d = Base·2^(n−2),
// capped at Cap. It consumes one jitter draw per call.
func (r *Retrier) Backoff(attempt int) time.Duration {
	if attempt < 2 {
		return 0
	}
	d := float64(r.p.Base)
	for i := 2; i < attempt && d < float64(r.p.Cap); i++ {
		d *= 2
	}
	if d > float64(r.p.Cap) {
		d = float64(r.p.Cap)
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(d - d*f/2)
}

// Sleep blocks for Backoff(attempt) or until ctx ends, returning
// ctx.Err() in the latter case.
func (r *Retrier) Sleep(ctx context.Context, attempt int) error {
	d := r.Backoff(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
