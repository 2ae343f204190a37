package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReusedKernelAndSharedTracesReproduceFreshRun is the core-level reuse
// guarantee the sweep engine depends on: a cluster built on a slab an arena
// lends (Config.Arena) with a shared trace cache (Config.Traces) must
// produce a RunResult deeply equal to a cluster built from scratch.
func TestReusedKernelAndSharedTracesReproduceFreshRun(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 4, Lambda: sim.Second / 2, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.5, Node: 0, Tenant: 2, Weight: 2},
	}
	cfgs := []Config{
		{Seed: 3, Nodes: twoGPUNode(), Mode: ModeCUDA},
		{Seed: 3, Nodes: twoGPUNode(), Mode: ModeRain, Balance: "GMin"},
		{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", DevPolicy: "TFS"},
	}

	fresh := make([]*RunResult, len(cfgs))
	for i, cfg := range cfgs {
		fresh[i] = mustRun(t, cfg, streams)
	}

	// One arena and one trace book shared by all three runs — the sweep
	// worker's steady state. Pollution from each run must not leak into the
	// next.
	var arena Arena
	book := workload.NewTraceBook()
	for i, cfg := range cfgs {
		cfg.Arena = &arena
		cfg.Traces = book
		got := mustRun(t, cfg, streams)
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("config %d (%v): reused-kernel run diverged from fresh run", i, cfg.Mode)
		}
	}
	if book.Len() == 0 {
		t.Error("trace book unused: arrivals were regenerated per run")
	}
}
