package router

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// waitGoroutines waits for the goroutine count to fall back to base:
// a joined helper has signalled its exit but may not have returned yet.
func waitGoroutines(t *testing.T, path string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive Run, %d before", path, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// enclosedNetlist is a random netlist plus one long net whose first pin
// is walled in by four foreign pins: once its via site is blocked the
// net cannot leave the pin, and routing it fails late in the first pass.
func enclosedNetlist() *netlist.Netlist {
	nl := randomNetlist("enclosed", 64, 64, 60, 5)
	used := map[geom.Pt]bool{}
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			used[p] = true
		}
	}
	c := geom.XY(31, 31)
	walls := []geom.Pt{c.Add(1, 0), c.Add(-1, 0), c.Add(0, 1), c.Add(0, -1)}
	far := []geom.Pt{geom.XY(1, 1), geom.XY(62, 1), geom.XY(1, 62), geom.XY(62, 62)}
	for _, p := range append(append([]geom.Pt{c, geom.XY(62, 40)}, walls...), far...) {
		if used[p] {
			// Free the cell: drop every net touching it.
			var keep []*netlist.Net
			for _, n := range nl.Nets {
				hit := false
				for _, q := range n.Pins {
					hit = hit || q == p
				}
				if !hit {
					keep = append(keep, n)
				}
			}
			nl.Nets = keep
			used[p] = false
		}
	}
	for i, w := range walls {
		nl.Nets = append(nl.Nets, &netlist.Net{Name: "wall" + itoa(i), Pins: []geom.Pt{w, far[i]}})
	}
	nl.Nets = append(nl.Nets, &netlist.Net{Name: "walled", Pins: []geom.Pt{c, geom.XY(62, 40)}})
	for i, n := range nl.Nets {
		n.ID = i
	}
	return nl
}

// TestHelpersJoinedOnEveryPath: whether Run succeeds, fails, is
// canceled or panics after its helpers started, no goroutine outlives
// it.
func TestHelpersJoinedOnEveryPath(t *testing.T) {
	defer func(a int) { helperMinArea = a }(helperMinArea)
	helperMinArea = 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Scheme: coloring.Scheme{Type: coloring.SIM}, ConsiderDVI: true, ConsiderTPL: true}
	nl := randomNetlist("join", 64, 64, 60, 5)
	base := runtime.NumGoroutine()

	rt := route(t, nl, cfg)
	if rt.Handoffs() == 0 {
		t.Fatal("no batch was handed to a helper")
	}
	waitGoroutines(t, "success", base)

	// A hook that acts once helpers have taken a batch.
	afterHandoff := func(rt *Router, act func()) {
		rt.debugCommit = func(*netRoute, bool) {
			if rt.Handoffs() > 0 {
				act()
			}
		}
	}

	cancel := make(chan struct{})
	c := cfg
	c.Cancel = cancel
	rt, err := New(nl, c)
	if err != nil {
		t.Fatal(err)
	}
	afterHandoff(rt, func() {
		select {
		case <-cancel:
		default:
			close(cancel)
		}
	})
	if err := rt.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run: got %v, want ErrCanceled", err)
	}
	waitGoroutines(t, "cancel", base)

	rt, err = New(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterHandoff(rt, func() { panic("commit hook") })
	func() {
		defer func() {
			if p := recover(); p != "commit hook" {
				t.Fatalf("recovered %v, want the hook's panic", p)
			}
		}()
		_ = rt.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	waitGoroutines(t, "panic", base)

	wnl := enclosedNetlist()
	rt, err = New(wnl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	walled := wnl.Nets[len(wnl.Nets)-1].Pins[0]
	rt.blockVia[0][rt.g.PIdx(walled)] = true
	err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), `initial routing of net "walled"`) {
		t.Fatalf("walled-in net: got %v, want its initial routing error", err)
	}
	if rt.Handoffs() == 0 {
		t.Fatal("the failing run handed no batch to a helper")
	}
	waitGoroutines(t, "error", base)
}

// TestHelperPanicReraised: a panic on a helper goroutine surfaces on
// the caller once the batch is drained, and stopHelpers leaves no
// goroutine and no stale panic behind.
func TestHelperPanicReraised(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rt, err := New(randomNetlist("panic", 30, 30, 12, 1), Config{Scheme: coloring.Scheme{Type: coloring.SIM}})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if !rt.crew.start(rt) {
		t.Fatal("no helper started at GOMAXPROCS 4")
	}
	// Slots without a Route panic in route, on whichever goroutine
	// claims them.
	batch := rt.slots[:batchCap]
	for i := range batch {
		batch[i] = batchSlot{id: int32(i)}
	}
	for round := 0; round < 20; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("batch of nil routes did not panic")
				}
			}()
			rt.crew.run(rt, batch)
		}()
		rt.stopHelpers()
		for _, s := range rt.searchers {
			if s.panicked != nil {
				t.Fatalf("round %d: stale helper panic %v", round, s.panicked)
			}
		}
		waitGoroutines(t, "helper panic", base)
		if !rt.crew.start(rt) {
			t.Fatal("helpers did not restart")
		}
	}
	rt.stopHelpers()
	waitGoroutines(t, "stop", base)
}
