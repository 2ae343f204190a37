package stringsched

import "testing"

// TestRunMegaSmoke drives a scaled-down mega macro-run (the scenario the repo
// benchmark's node_mega workload is built on) and checks its shape: every
// request finishes, the virtual timeline is dominated by fast-forwarded idle
// time, and identical seeds reproduce the run bit-identically.
func TestRunMegaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mega smoke run skipped in -short mode")
	}
	const requests = 2000
	res, err := RunMega(7, requests)
	if err != nil {
		t.Fatalf("RunMega: %v", err)
	}
	if res.Finished != requests {
		t.Errorf("finished %d of %d requests", res.Finished, requests)
	}
	if res.Events == 0 || res.EndTime <= 0 {
		t.Errorf("degenerate run: %d events, end time %v", res.Events, res.EndTime)
	}
	// The stream's mean inter-arrival (1.5x solo runtime) dwarfs service
	// times, so nearly the whole timeline is quiescent: the kernel must be
	// jumping over it, not stepping through it.
	if res.FFJumps == 0 {
		t.Error("no fast-forward jumps in a mostly-idle run")
	}
	if ratio := res.SkipRatio(); ratio < 0.9 || ratio > 1.0 {
		t.Errorf("skip ratio %.4f, want within [0.9, 1.0]", ratio)
	}

	again, err := RunMega(7, requests)
	if err != nil {
		t.Fatalf("RunMega (repeat): %v", err)
	}
	if again != res {
		t.Errorf("same seed diverged:\n first: %+v\nsecond: %+v", res, again)
	}
}

// TestRunMegaShardedSmoke drives a scaled-down sharded mega run (the scenario
// the repo benchmark's fleet_sharded workload is built on): the fleet must
// actually shard, exercise the window machinery, and produce bit-identical
// results and shard stats on a rerun.
func TestRunMegaShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded mega smoke run skipped in -short mode")
	}
	const requests = 2000
	res, stats, err := RunMegaSharded(7, requests, 1)
	if err != nil {
		t.Fatalf("RunMegaSharded(1): %v", err)
	}
	if res.Finished != requests {
		t.Errorf("finished %d of %d requests", res.Finished, requests)
	}
	if res.Events == 0 || res.EndTime <= 0 {
		t.Errorf("degenerate run: %d events, end time %v", res.Events, res.EndTime)
	}
	if stats.Windows == 0 || stats.SoloRuns == 0 {
		t.Errorf("coordinator did not exercise both window modes: %+v", stats)
	}
	if stats.Messages == 0 {
		t.Errorf("no cross-shard messages — the mega traffic never crossed a mailbox: %+v", stats)
	}

	again, againStats, err := RunMegaSharded(7, requests, 1)
	if err != nil {
		t.Fatalf("RunMegaSharded (repeat): %v", err)
	}
	if again != res {
		t.Errorf("same seed diverged:\n first: %+v\nsecond: %+v", res, again)
	}
	if againStats != stats {
		t.Errorf("shard stats diverged on a rerun:\n first: %+v\nsecond: %+v", stats, againStats)
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
	small, err := RunMega(3, 500)
	if err != nil {
		t.Fatalf("RunMega(500): %v", err)
	}
	large, err := RunMega(3, 2500)
	if err != nil {
		t.Fatalf("RunMega(2500): %v", err)
	}
	perReqSmall := float64(small.Events) / 500
	perReqLarge := float64(large.Events) / 2500
	if perReqLarge > perReqSmall*1.05 || perReqLarge < perReqSmall*0.95 {
		t.Errorf("events per request drifted with scale: %.1f at 500, %.1f at 2500",
			perReqSmall, perReqLarge)
	}
}
