package router

// Arena recycling must be invisible in the output: a router rebuilt
// from recycled memory produces bit-identical stats and geometry to a
// freshly allocated one, across netlist, scheme, seed, net-count,
// consideration, parameter and topology changes on the same grid
// shape, and after a failed run.

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/coloring"
	"repro/internal/netlist"
)

type arenaCase struct {
	nl   *netlist.Netlist
	cfg  Config
	name string
	// cancel makes the recycled run fail: it is canceled at its first
	// TPL-phase commit, once helpers have taken a batch, and released
	// with FVPs open. There is no fresh run to compare.
	cancel bool
}

func runFresh(t *testing.T, c arenaCase) *Router {
	t.Helper()
	return route(t, c.nl, c.cfg)
}

func runArena(t *testing.T, a *Arena, c arenaCase) *Router {
	t.Helper()
	cfg := c.cfg
	cfg.Arena = a
	rt, err := New(c.nl, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return rt
}

func sameSolution(t *testing.T, name string, a, b *Router) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats differ:\nfresh: %+v\narena: %+v", name, a.Stats(), b.Stats())
	}
	ra, rb := a.Routes(), b.Routes()
	if len(ra) != len(rb) {
		t.Fatalf("%s: route counts differ: %d vs %d", name, len(ra), len(rb))
	}
	for id := range ra {
		pa, pb := ra[id].PointList(), rb[id].PointList()
		if len(pa) != len(pb) {
			t.Fatalf("%s net %d: point counts differ: %d vs %d", name, id, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s net %d: point %d differs: %v vs %v", name, id, i, pa[i], pb[i])
			}
		}
		va, vb := ra[id].ViaList(), rb[id].ViaList()
		if len(va) != len(vb) {
			t.Fatalf("%s net %d: via counts differ: %d vs %d", name, id, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s net %d: via %d differs: %v vs %v", name, id, i, va[i], vb[i])
			}
		}
	}
}

// TestArenaBitIdentical runs a varied job sequence twice — fresh
// routers vs one recycled arena — and demands identical output at
// every step. The sequence changes netlists, schemes, seeds and net
// counts on a matching grid shape, plus one mismatched shape (which
// silently falls back to fresh allocation); it switches TPL and DVI
// consideration off after runs with them on, the cost weights and the
// topology; and it recycles a router whose run was canceled in the TPL
// phase after its helpers had started.
func TestArenaBitIdentical(t *testing.T) {
	sim := coloring.Scheme{Type: coloring.SIM}
	sid := coloring.Scheme{Type: coloring.SID}
	full := func(s coloring.Scheme, seed int64) Config {
		return Config{Scheme: s, ConsiderDVI: true, ConsiderTPL: true, Seed: seed}
	}
	with := func(c Config, edit func(*Config)) Config {
		edit(&c)
		return c
	}
	cases := []arenaCase{
		{nl: randomNetlist("a", 26, 26, 34, 3), cfg: full(sim, 3), name: "sim-seed3"},
		{nl: randomNetlist("b", 26, 26, 34, 8), cfg: full(sim, 8), name: "new-netlist"},
		{nl: randomNetlist("b", 26, 26, 34, 8), cfg: full(sid, 8), name: "scheme-flip"},
		{nl: randomNetlist("c", 26, 26, 20, 5), cfg: full(sim, 5), name: "fewer-nets"},
		{nl: randomNetlist("d", 18, 31, 25, 7), cfg: full(sim, 7), name: "shape-mismatch"},
		{nl: randomNetlist("e", 26, 26, 40, 11), cfg: full(sim, 11), name: "more-nets"},
		{nl: randomNetlist("a", 26, 26, 34, 3), cfg: full(sim, 4), name: "seed-change"},
		{nl: randomNetlist("a", 26, 26, 34, 3), cfg: with(full(sim, 3), func(c *Config) { c.ConsiderTPL = false }), name: "tpl-off"},
		{nl: randomNetlist("b", 26, 26, 34, 8), cfg: with(full(sim, 8), func(c *Config) { c.ConsiderDVI = false }), name: "dvi-off"},
		{nl: randomNetlist("b", 26, 26, 34, 8), cfg: with(full(sid, 8), func(c *Config) { c.Params = ConferenceParams() }), name: "conference-params"},
		{nl: randomNetlist("e", 26, 26, 40, 11), cfg: with(full(sim, 11), func(c *Config) { c.Topology = StarTopology }), name: "star-topology"},
		{nl: randomNetlist("f", 30, 30, 46, 33), cfg: full(sim, 33), name: "failed-run", cancel: true},
		// Sparse, so no via of it re-probes the windows the canceled
		// run left in its FVP set: a set bind kept would be picked.
		{nl: randomNetlist("g", 30, 30, 10, 17), cfg: full(sim, 17), name: "after-failed-run"},
	}
	arena := NewArena()
	for _, c := range cases {
		if c.cancel {
			runCanceled(t, arena, c)
			continue
		}
		fresh := runFresh(t, c)
		recycled := runArena(t, arena, c)
		sameSolution(t, c.name, fresh, recycled)
		checkSolution(t, recycled, c.nl)
		arena.Release(recycled)
	}
}

// runCanceled runs c through the arena with batches planned blind and
// handed to helpers, cancels the run at its first TPL-phase commit
// once they have taken one, and releases the router.
func runCanceled(t *testing.T, a *Arena, c arenaCase) {
	t.Helper()
	defer SetHelperMinArea(0)()
	defer SetPlanBlind()()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cancel := make(chan struct{})
	cfg := c.cfg
	cfg.Arena, cfg.Cancel = a, cancel
	rt, err := New(c.nl, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rt.debugCommit = func(*netRoute, bool) {
		if rt.Handoffs() > 0 && rt.tplPhase {
			select {
			case <-cancel:
			default:
				close(cancel)
			}
		}
	}
	if err := rt.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("%s: got %v, want ErrCanceled", c.name, err)
	}
	if len(rt.fvps) == 0 {
		t.Fatalf("%s: canceled with no FVP open", c.name)
	}
	a.Release(rt)
}

// TestArenaShapeMismatchKeepsStored verifies the arena holds onto a
// stored router across mismatched takes instead of dropping it.
func TestArenaShapeMismatchKeepsStored(t *testing.T) {
	sim := coloring.Scheme{Type: coloring.SIM}
	nlA := randomNetlist("keep-a", 20, 20, 12, 1)
	nlB := randomNetlist("keep-b", 24, 16, 12, 1)
	arena := NewArena()
	rtA := runArena(t, arena, arenaCase{nl: nlA, cfg: Config{Scheme: sim, Seed: 1}, name: "fill"})
	arena.Release(rtA)
	if got := arena.take(nlB); got != nil {
		t.Fatal("mismatched shape handed out recycled memory")
	}
	if got := arena.take(nlA); got != rtA {
		t.Fatal("matching take did not return the stored router after a mismatch")
	}
}
