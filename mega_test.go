package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// megaResult summarizes one mega macro-run: the kernel's event and
// coroutine-resume counts, the virtual end time, and the fast-forward
// counters that only matter at this scale (the stream's inter-arrival gaps
// dwarf its service times, so most of the virtual timeline is skipped).
type megaResult struct {
	Events, Resumes, Queued, FFJumps uint64
	EndTime, FFSkipped               sim.Time
}

// runMega drives the repo benchmark's node_mega shape — requests Gaussian
// requests (the lightest Table I profile) as one sparse Poisson stream at a
// two-GPU Strings node under GMin. Identical seeds give identical results;
// anything but every request finishing is fatal.
func runMega(t *testing.T, seed int64, requests int) megaResult {
	t.Helper()
	c, err := core.New(core.Config{
		Seed: seed,
		Nodes: []core.NodeConfig{{Devices: []gpu.Spec{
			gpu.Quadro2000, gpu.TeslaC2050,
		}}},
		Mode:    core.ModeStrings,
		Balance: "GMin",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.Gaussian, Count: requests, LambdaFactor: 1.5,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil || len(r.Errors) > 0 || r.Finished != requests {
		t.Fatalf("mega run: %v %v, finished %d of %d", err, r.Errors, r.Finished, requests)
	}
	jumps, skipped := c.FastForwards()
	return megaResult{
		Events: c.Dispatched(), Resumes: c.Resumes(), Queued: c.K.Queued(), FFJumps: jumps,
		EndTime: r.EndTime, FFSkipped: skipped,
	}
}

// TestRunMegaSmoke drives a scaled-down mega macro-run (the scenario the repo
// benchmark's node_mega workload is built on) and checks its shape: every
// request finishes, the virtual timeline is dominated by fast-forwarded idle
// time, and identical seeds reproduce the run bit-identically.
func TestRunMegaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mega smoke run skipped in -short mode")
	}
	const requests = 2000
	res := runMega(t, 7, requests)
	if res.Events == 0 || res.EndTime <= 0 {
		t.Fatalf("degenerate run: %d events, end time %v", res.Events, res.EndTime)
	}
	// The stream's mean inter-arrival (1.5x solo runtime) dwarfs service
	// times, so nearly the whole timeline is quiescent: the kernel must be
	// jumping over it, not stepping through it.
	if res.FFJumps == 0 {
		t.Error("no fast-forward jumps in a mostly-idle run")
	}
	if ratio := float64(res.FFSkipped) / float64(res.EndTime); ratio < 0.9 || ratio > 1.0 {
		t.Errorf("skip ratio %.4f, want within [0.9, 1.0]", ratio)
	}
	if again := runMega(t, 7, requests); again != res {
		t.Errorf("same seed diverged:\n first: %+v\nsecond: %+v", res, again)
	}
}

// TestRunMegaPerRequestCostIsFlat guards the O(live streams) fix: the packed
// context must shed destroyed streams, or the driver's dispatch scan (and the
// CUDA layer's device-sync walk) grows with every application ever served and
// per-request cost becomes linear in run length. Events per request is
// scale-free in this scenario, so comparing events-per-request across two run
// lengths verifies the workload shape; wall time per event at 5x the requests
// staying near-constant is checked indirectly by the benchmark, while here we
// pin the simulated structure that made the quadratic visible.
func TestRunMegaPerRequestCostIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("mega scaling check skipped in -short mode")
	}
	perReqSmall := float64(runMega(t, 3, 500).Events) / 500
	perReqLarge := float64(runMega(t, 3, 2500).Events) / 2500
	if perReqLarge > perReqSmall*1.05 || perReqLarge < perReqSmall*0.95 {
		t.Errorf("events per request drifted with scale: %.1f at 500, %.1f at 2500",
			perReqSmall, perReqLarge)
	}
}
