package router

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// multiPinNetlist builds a deterministic netlist whose nets all have
// k ∈ [3, 5] pins, so every net exercises the topology generator.
func multiPinNetlist(name string, w, h, nets int, seed int64) *netlist.Netlist {
	nl := randomNetlist(name, w, h, nets, seed)
	// randomNetlist already emits 2-4 pins; bump the 2-pin nets by
	// borrowing a free cell near their bbox so every net has ≥ 3.
	used := map[geom.Pt]bool{}
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			used[p] = true
		}
	}
	for _, n := range nl.Nets {
		for len(n.Pins) < 3 {
			b := geom.BoundingRect(n.Pins)
			added := false
			for y := b.MinY; y <= b.MaxY && !added; y++ {
				for x := b.MinX; x <= b.MaxX && !added; x++ {
					p := geom.XY(x, y)
					if !used[p] {
						used[p] = true
						n.Pins = append(n.Pins, p)
						added = true
					}
				}
			}
			if !added {
				// Bbox full; scan the whole grid deterministically.
				for y := 0; y < h && !added; y++ {
					for x := 0; x < w && !added; x++ {
						p := geom.XY(x, y)
						if !used[p] {
							used[p] = true
							n.Pins = append(n.Pins, p)
							added = true
						}
					}
				}
			}
		}
	}
	return nl
}

// TestSteinerTopologyFullFlow: k-pin nets under the full flow (DVI +
// TPL consideration) satisfy every hard invariant, and the Steiner
// generator actually drove the decomposition.
func TestSteinerTopologyFullFlow(t *testing.T) {
	for _, seed := range []int64{1, 7, 13} {
		nl := multiPinNetlist("steiner", 30, 30, 24, seed)
		rt := route(t, nl, Config{
			Scheme:      coloring.Scheme{Type: coloring.SIM},
			ConsiderDVI: true, ConsiderTPL: true,
			Seed: seed,
		})
		checkSolution(t, rt, nl)
		if rt.Stats().SteinerNets == 0 {
			t.Fatalf("seed %d: no net used the Steiner topology", seed)
		}
	}
}

// TestStarTopologyFullFlow: the legacy greedy order stays a working,
// verifiable configuration (it is the in-router fallback).
func TestStarTopologyFullFlow(t *testing.T) {
	nl := multiPinNetlist("star", 30, 30, 24, 7)
	rt := route(t, nl, Config{
		Scheme:      coloring.Scheme{Type: coloring.SIM},
		ConsiderDVI: true, ConsiderTPL: true,
		Topology: StarTopology,
		Seed:     7,
	})
	checkSolution(t, rt, nl)
	if n := rt.Stats().SteinerNets; n != 0 {
		t.Fatalf("star topology built %d Steiner decompositions", n)
	}
}

// TestSteinerWirelengthCompetitive: across the seeds, the Steiner
// decomposition never loses to the greedy star order in total
// wirelength by more than a sliver, and wins somewhere. (Fixed seeds —
// the comparison is exact and reproducible, not statistical.)
func TestSteinerWirelengthCompetitive(t *testing.T) {
	wins := 0
	for _, seed := range []int64{1, 7, 13, 19} {
		nl := multiPinNetlist("wl", 30, 30, 24, seed)
		cfg := Config{
			Scheme:      coloring.Scheme{Type: coloring.SIM},
			ConsiderDVI: true, ConsiderTPL: true, Seed: seed,
		}
		st := route(t, nl, cfg)
		cfg.Topology = StarTopology
		gr := route(t, nl, cfg)
		sw, gw := st.Stats().Wirelength, gr.Stats().Wirelength
		t.Logf("seed %d: steiner WL %d, star WL %d", seed, sw, gw)
		if sw < gw {
			wins++
		}
		if sw > gw+gw/10 {
			t.Fatalf("seed %d: steiner WL %d much worse than star %d", seed, sw, gw)
		}
	}
	if wins == 0 {
		t.Fatal("steiner topology never beat the star order on any seed")
	}
}

// TestTopologyCachedAcrossRipUp: rip-up/reroute cycles keep the net's
// decomposition — the cached tree is reused, not rebuilt, so the tree
// shape survives congestion negotiation.
func TestTopologyCachedAcrossRipUp(t *testing.T) {
	nl := multiPinNetlist("cache", 30, 30, 24, 13)
	rt := route(t, nl, Config{
		Scheme:      coloring.Scheme{Type: coloring.SIM},
		ConsiderDVI: true, ConsiderTPL: true,
		Seed: 13,
	})
	for id, n := range nl.Nets {
		if len(n.Pins) < 3 {
			continue
		}
		tree := rt.topos[id]
		if tree == nil {
			t.Fatalf("net %d (%d pins) has no cached topology", id, len(n.Pins))
		}
		if tree == fallbackTopo {
			continue
		}
		// Rip and reroute: the cache must hand back the same tree.
		rt.ripUp(int32(id))
		before := tree
		if err := rt.rerouteNet(int32(id), "reroute"); err != nil {
			t.Fatalf("reroute net %d: %v", id, err)
		}
		if rt.topos[id] != before {
			t.Fatalf("net %d: topology rebuilt across rip-up", id)
		}
		var pins []geom.Pt3
		for _, p := range n.Pins {
			pins = append(pins, geom.XYL(p.X, p.Y, 0))
		}
		if !rt.Routes()[id].Connected(pins) {
			t.Fatalf("net %d disconnected after cached reroute", id)
		}
	}
}

// TestFallbackSentinelRoutesGreedy: a net marked with the fallback
// sentinel routes with the greedy order and still connects every pin.
func TestFallbackSentinelRoutesGreedy(t *testing.T) {
	nl := multiPinNetlist("fb", 24, 24, 10, 19)
	rt, err := New(nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	for id := range nl.Nets {
		rt.topos[id] = fallbackTopo
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := rt.Stats().SteinerNets; n != 0 {
		t.Fatalf("fallback nets counted as Steiner nets: %d", n)
	}
	for id, n := range nl.Nets {
		var pins []geom.Pt3
		for _, p := range n.Pins {
			pins = append(pins, geom.XYL(p.X, p.Y, 0))
		}
		if !rt.Routes()[id].Connected(pins) {
			t.Fatalf("net %d disconnected under greedy fallback", id)
		}
	}
}

// TestSteinerOwnerExclusive: no two nets claim the same Steiner cell,
// and no claimed cell sits on a foreign pin.
func TestSteinerOwnerExclusive(t *testing.T) {
	nl := multiPinNetlist("own", 30, 30, 24, 1)
	rt := route(t, nl, Config{Scheme: coloring.Scheme{Type: coloring.SIM}, Seed: 1})
	for id, tree := range rt.topos {
		if tree == nil || tree == fallbackTopo {
			continue
		}
		for _, s := range tree.Steiner {
			if o := rt.steinerOwner[s.Y*nl.W+s.X]; o != int32(id)+1 {
				t.Fatalf("net %d steiner point %v owned by %d", id, s, o-1)
			}
			if o := rt.pinOwner[s.Y*nl.W+s.X]; o != 0 && o != int32(id)+1 {
				t.Fatalf("net %d steiner point %v sits on net %d's pin", id, s, o-1)
			}
		}
	}
}

// TestTopologyDeterministic: two independent routers over the same
// netlist produce identical topologies and identical geometry.
func TestTopologyDeterministic(t *testing.T) {
	nl := multiPinNetlist("det", 30, 30, 24, 7)
	cfg := Config{
		Scheme:      coloring.Scheme{Type: coloring.SIM},
		ConsiderDVI: true, ConsiderTPL: true,
		Seed: 7,
	}
	a, b := route(t, nl, cfg), route(t, nl, cfg)
	for id := range nl.Nets {
		ta, tb := a.topos[id], b.topos[id]
		if (ta == nil) != (tb == nil) {
			t.Fatalf("net %d: topology presence differs", id)
		}
		if ta == nil {
			continue
		}
		if len(ta.Segs) != len(tb.Segs) {
			t.Fatalf("net %d: segment counts differ", id)
		}
		for i := range ta.Segs {
			if ta.Segs[i] != tb.Segs[i] {
				t.Fatalf("net %d seg %d: %v vs %v", id, i, ta.Segs[i], tb.Segs[i])
			}
		}
		pa, pb := a.Routes()[id].PointList(), b.Routes()[id].PointList()
		if len(pa) != len(pb) {
			t.Fatalf("net %d: geometry differs", id)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("net %d point %d: %v vs %v", id, i, pa[i], pb[i])
			}
		}
	}
}
