package router

// Allocation ceilings for the //sadplint:hotpath families. hotalloc
// proves the code *shape* cannot allocate per iteration; these tests
// pin the *measured* behavior so a regression that sneaks past the
// static analyzer (a stdlib change, an interface conversion behind a
// helper) still fails CI. Ceilings are deliberately loose — they catch
// order-of-magnitude regressions, not single stray allocations.

import (
	"testing"

	"repro/internal/coloring"
)

// TestBucketQueueSteadyStateAllocs: after the ring has grown to cover
// the key span, push/pop cycles must be allocation-free.
func TestBucketQueueSteadyStateAllocs(t *testing.T) {
	var q bucketQueue
	q.init(8)
	// Warm up: force growth past the largest key delta used below.
	for i := int64(0); i < 512; i++ {
		q.push(pqItem{f: i, id: int32(i)})
	}
	for q.n > 0 {
		q.pop()
	}
	base := int64(512)
	avg := testing.AllocsPerRun(200, func() {
		for i := int64(0); i < 64; i++ {
			q.push(pqItem{f: base + i, id: int32(i)})
		}
		for q.n > 0 {
			base = q.pop().f
		}
	})
	if avg != 0 {
		t.Errorf("bucket queue steady-state push/pop allocates %.1f per cycle, want 0", avg)
	}
}

// TestArenaJobAllocs pins the whole-job ceiling: a full route on a
// warmed arena — the search steps, the TPL rip-up-and-recolor loop and
// the via victim scans — must stay within a small constant allocation
// budget. This 34-net DVI+TPL job measures a stable 328 allocs warm
// (the tiny-suite flow in internal/bench measures ~47); the ceiling
// leaves slack for toolchain noise, not for a regression of the arena
// or the hotpath buffers.
func TestArenaJobAllocs(t *testing.T) {
	nl := randomNetlist("alloc", 26, 26, 34, 3)
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true, Seed: 3}
	cfg.Arena = NewArena()
	// Two warm-up jobs: the first sizes the arena, the second settles
	// lazily grown scratch (victim buffers, via lists). Each router is
	// released back, as the service worker loop does.
	for i := 0; i < 2; i++ {
		rt, err := New(nl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		cfg.Arena.Release(rt)
	}
	avg := testing.AllocsPerRun(5, func() {
		rt, err := New(nl, cfg)
		if err != nil {
			panic(err)
		}
		if err := rt.Run(); err != nil {
			panic(err)
		}
		cfg.Arena.Release(rt)
	})
	const ceiling = 500
	if avg > ceiling {
		t.Errorf("arena-recycled routing job allocates %.1f, ceiling %d", avg, ceiling)
	}
}
