package core

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The bare runtime multiplexing GPU contexts with driver time slices is,
// to first order, an M/G/1 processor-sharing queue on the GPU: mean sojourn
// ≈ CPU_solo + D/(1-ρ) with D the request's solo GPU demand and ρ = D/λ.
// This cross-validates the simulator's queueing behaviour against closed
// form — an independent conservation check on the whole substrate.
func TestSimulatorMatchesMG1PS(t *testing.T) {
	prof := workload.ProfileFor(workload.DXTC)
	soloGPU := prof.SoloRuntime.Seconds() * prof.GPUPct / 100
	soloCPU := prof.SoloRuntime.Seconds() - soloGPU

	for _, factor := range []float64{2.5, 1.7} {
		lambda := sim.Time(factor * float64(prof.SoloRuntime))
		rate := 1.0 / lambda.Seconds()
		want, err := mg1PS(soloGPU, rate)
		if err != nil {
			t.Fatal(err)
		}
		want += soloCPU

		cfg := Config{Seed: 21, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}, Mode: ModeCUDA}
		c, errNew := New(cfg)
		if errNew != nil {
			t.Fatal(errNew)
		}
		r, errRun := c.Run([]workload.StreamSpec{{
			Kind: workload.DXTC, Count: 30, Lambda: lambda,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		if errRun != nil || len(r.Errors) > 0 {
			t.Fatalf("run: %v %v", errRun, r.Errors)
		}
		got := r.AvgCompletion(workload.DXTC).Seconds()
		ratio := got / want
		if ratio < 0.75 || ratio > 1.35 {
			t.Fatalf("λ=%v: simulated sojourn %.1fs vs M/G/1-PS %.1fs (ratio %.2f)",
				lambda, got, want, ratio)
		}
	}
}

// With two GPUs behind GMin the system approximates M/M/2 on the faster
// device class; the prediction needs only to bracket the simulation loosely
// (heterogeneous service rates break the model's symmetry).
func TestSimulatorBracketedByMMc(t *testing.T) {
	prof := workload.ProfileFor(workload.DXTC)
	lambda := sim.Time(1.0 * float64(prof.SoloRuntime))
	rate := 1.0 / lambda.Seconds()

	cfg := Config{Seed: 22, Nodes: []NodeConfig{
		{Devices: []gpu.Spec{gpu.TeslaC2050, gpu.TeslaC2050}},
	}, Mode: ModeStrings, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.DXTC, Count: 30, Lambda: lambda,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	got := r.AvgCompletion(workload.DXTC).Seconds()

	soloGPU := prof.SoloRuntime.Seconds() * prof.GPUPct / 100
	soloCPU := prof.SoloRuntime.Seconds() - soloGPU
	lower := prof.SoloRuntime.Seconds() // cannot beat solo
	upper, errU := mmc(2, soloGPU, rate)
	if errU != nil {
		t.Fatal(errU)
	}
	upper = 2.5 * (upper + soloCPU) // loose slack for sharing slowdown
	if got < 0.9*lower || got > upper {
		t.Fatalf("simulated %.1fs outside [%.1f, %.1f]", got, lower, upper)
	}
}

// TestFastForwardMatchesAnalyticIdle validates the analytic fast-forward
// against closed form on a sparse stream. With mean inter-arrival at 4x the
// solo runtime the queue is nearly empty (ρ ≈ 0.07 of GPU demand), so
// M/G/1-PS predicts sojourn ≈ solo runtime; meanwhile nearly the whole
// virtual timeline is idle, so the kernel must cover it with clock jumps —
// the skip ratio approaches 1. Both properties have to hold at once: the
// jumps may not distort the latencies they skip past, and the latencies may
// not be obtained by grinding through the idle time the jumps exist to avoid.
func TestFastForwardMatchesAnalyticIdle(t *testing.T) {
	prof := workload.ProfileFor(workload.DXTC)
	soloGPU := prof.SoloRuntime.Seconds() * prof.GPUPct / 100
	soloCPU := prof.SoloRuntime.Seconds() - soloGPU
	lambda := sim.Time(4.0 * float64(prof.SoloRuntime))
	want, err := mg1PS(soloGPU, 1.0/lambda.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	want += soloCPU

	run := func(horizon sim.Time) (sojourn, skipRatio float64, jumps uint64) {
		cfg := Config{Seed: 23, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}, Mode: ModeCUDA}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if horizon != 0 {
			c.K.SetFFHorizon(horizon)
		}
		r, err := c.Run([]workload.StreamSpec{{
			Kind: workload.DXTC, Count: 40, Lambda: lambda,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		if err != nil || len(r.Errors) > 0 {
			t.Fatalf("run: %v %v", err, r.Errors)
		}
		j, skipped := c.K.FastForwards()
		return r.AvgCompletion(workload.DXTC).Seconds(), float64(skipped) / float64(r.EndTime), j
	}

	got, ratio, jumps := run(0)
	if r := got / want; r < 0.9 || r > 1.2 {
		t.Errorf("sparse-stream sojourn %.2fs vs analytic %.2fs (ratio %.2f)", got, want, r)
	}
	if jumps == 0 || ratio < 0.8 {
		t.Errorf("idle timeline not fast-forwarded: %d jumps, skip ratio %.3f", jumps, ratio)
	}
	// The horizon is instrumentation only: an absurdly large one must leave
	// the simulated latencies untouched (only the counters move).
	gotHuge, _, _ := run(1000 * sim.Second)
	if gotHuge != got {
		t.Errorf("FF horizon changed results: %.6fs vs %.6fs", gotHuge, got)
	}
}
