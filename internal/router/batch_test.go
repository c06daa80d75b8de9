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

// stuckNetlist interleaves ten pairs of two-pin nets on a 40×1
// two-layer grid: a_k joins (4k,0) to (4k+2,0) and b_k joins (4k+1,0)
// to (4k+3,0). Each net of a pair must cross the other's pin column,
// on layer 0 through the pin itself or on layer 1 over the other's
// crossing, so every pair overlaps somewhere: a congestion no rip-up
// can resolve, and Run fails once the congestion phase's iteration cap
// is spent. The netlist itself is valid; no two nets share a pin.
func stuckNetlist() *netlist.Netlist {
	nl := &netlist.Netlist{Name: "stuck", W: 40, H: 1, NumLayers: 2}
	for k := 0; k < 10; k++ {
		for _, x := range []int{4 * k, 4*k + 1} {
			nl.Nets = append(nl.Nets, &netlist.Net{ID: len(nl.Nets), Name: "n" + itoa(len(nl.Nets)), Pins: []geom.Pt{geom.XY(x, 0), geom.XY(x+2, 0)}})
		}
	}
	return nl
}

// TestHelpersJoinedOnEveryPath: whether Run succeeds, fails, is
// canceled or panics after its helpers started, no goroutine outlives
// it. None of the failures needs a change to router state.
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

	// Blind planning hands the small netlist's first-pass batches to
	// the helpers; its congestion then outlasts the cap.
	restore := SetPlanBlind()
	rt, err = New(stuckNetlist(), cfg)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	err = rt.Run()
	restore()
	if err == nil || !strings.Contains(err.Error(), "congestion unresolved") {
		t.Fatalf("stuck netlist: got %v, want its congestion error", err)
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
