package main

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// TestSlowChaosSeedStallsEveryJob pins what scripts/cluster_e2e.sh's
// worker-kill and coordinator-crash scenarios rely on: under -chaos
// slow at seed 65 the first six jobs a worker runs all stall before
// routing, so a kill lands while the worker holds a lease and before
// its result can be journaled.
func TestSlowChaosSeedStallsEveryJob(t *testing.T) {
	var cfg cluster.WorkerConfig
	if err := armChaos("slow", 65, &cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := cfg.Fault.Inject("worker.slow"); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("job %d: worker.slow did not trip (%v)", i+1, err)
		}
	}
}
