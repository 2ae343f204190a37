package core

import (
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReusedKernelAndSharedTracesReproduceFreshRun is the core-level reuse
// guarantee every simulation depends on: a cluster built on slabs an arena
// lends warm, from clusters of every shape before it — one kernel, a kernel
// per node, a MIG fleet — with a shared trace cache (Config.Traces) must
// produce a RunResult deeply equal to a cluster built on a fresh arena.
func TestReusedKernelAndSharedTracesReproduceFreshRun(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 4, Lambda: sim.Second / 2, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.5, Node: 0, Tenant: 2, Weight: 2},
	}
	spread := append(shardedScenario(), workload.StreamSpec{Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.5, Node: 3, Tenant: 4, Weight: 1})
	sharded := Config{Seed: 3, Nodes: append(supernode(), supernode()...), Mode: ModeStrings, Balance: "GMin", DevPolicy: "TFS", Shards: 1}
	mig := Config{Seed: 3, Mode: ModeStrings, Balance: "Frag",
		Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050.WithMIG(), gpu.Quadro4000.WithMIG()}}}}
	slices := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 3, Lambda: sim.Second / 2, Tenant: 1, Weight: 1, SliceProfile: "3g"},
		{Kind: workload.MonteCarlo, Count: 3, Lambda: sim.Second / 2, Tenant: 2, Weight: 1, SliceProfile: "2g"},
	}
	runs := []struct {
		cfg     Config
		streams []workload.StreamSpec
	}{
		{sharded, spread},
		{Config{Seed: 3, Nodes: twoGPUNode(), Mode: ModeCUDA}, streams},
		{Config{Seed: 3, Nodes: twoGPUNode(), Mode: ModeRain, Balance: "GMin"}, streams},
		{Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", DevPolicy: "TFS"}, streams},
		{mig, slices},
		{sharded, spread},
	}

	// One arena and one trace book shared by every run — a worker's steady
	// state. Pollution from each run must not leak into the next.
	var warm arena
	book := workload.NewTraceBook()
	for i, run := range runs {
		fresh := runOn(t, new(arena), run.cfg, run.streams, 0)
		run.cfg.Traces = book
		if got := runOn(t, &warm, run.cfg, run.streams, 0); !reflect.DeepEqual(got, fresh) {
			t.Errorf("run %d (%v, %d nodes, shards %d): the warm run diverged from the fresh one", i, run.cfg.Mode, len(run.cfg.Nodes), run.cfg.Shards)
		}
	}
	if book.Len() == 0 {
		t.Error("trace book unused: arrivals were regenerated per run")
	}
}
