package core

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testCallTimeout arms recovery at a call timeout suited to the short test
// workloads.
const testCallTimeout = 30 * sim.Second

// faultRun executes a Strings supernode run with the given plan and
// recovery, without the no-error assertions of mustRun (faults may lose
// requests, but must never produce Errors).
func faultRun(t *testing.T, seed int64, plan faults.Plan, streams []workload.StreamSpec) *RunResult {
	t.Helper()
	c, err := New(Config{
		Seed: seed, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin",
		Faults: plan, CallTimeout: testCallTimeout,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := c.Run(streams)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("fault run produced hard errors (Lost should absorb them): %v", r.Errors)
	}
	return r
}

func faultStreams(n int) []workload.StreamSpec {
	return []workload.StreamSpec{
		{Kind: workload.MonteCarlo, Count: n, LambdaFactor: 0.5, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: n, LambdaFactor: 0.5, Node: 1, Tenant: 2, Weight: 1},
	}
}

// TestNodeKillMidRunRecovers kills node 1 mid-run: every request must be
// accounted for exactly once (no double-counting), in-flight work fails over
// to node 0's survivors, and at least one request finishes after the kill.
func TestNodeKillMidRunRecovers(t *testing.T) {
	// Establish the healthy makespan first, then kill at its midpoint.
	base := faultRun(t, 7, faults.Plan{}, faultStreams(4))
	if base.Lost != 0 || base.Recovered != 0 {
		t.Fatalf("healthy run reported Lost=%d Recovered=%d", base.Lost, base.Recovered)
	}
	killAt := base.EndTime / 2

	r := faultRun(t, 7, faults.Plan{Faults: []faults.Fault{
		{At: killAt, Kind: faults.KillNode, Node: 1},
	}}, faultStreams(4))

	if r.Launched != 8 {
		t.Fatalf("Launched = %d, want 8", r.Launched)
	}
	if r.Finished+r.Lost != r.Launched {
		t.Fatalf("accounting broken: Finished %d + Lost %d != Launched %d",
			r.Finished, r.Lost, r.Launched)
	}
	if r.Finished == 0 {
		t.Fatal("no request survived the node kill")
	}
	// The request log must agree with the counters: exactly one row per
	// launched request, failed rows carrying errors.
	if len(r.Requests) != r.Launched {
		t.Fatalf("request log has %d rows for %d launches", len(r.Requests), r.Launched)
	}
	failedRows := 0
	for _, ev := range r.Requests {
		if ev.Err != "" {
			failedRows++
		}
	}
	if failedRows != r.Lost {
		t.Fatalf("request log has %d failed rows, counters say Lost=%d", failedRows, r.Lost)
	}
	finishedAfter := 0
	for _, ev := range r.Requests {
		if ev.Err == "" && sim.Time(ev.FinishedUS) > killAt {
			finishedAfter++
		}
	}
	if finishedAfter == 0 {
		t.Fatal("no request completed after the kill: the pool never recovered")
	}
}

// TestDeadNodeSpilloverReroutesArrivals kills node 1 before any work
// arrives: every request must land on node 0's GPUs and finish.
func TestDeadNodeSpilloverReroutesArrivals(t *testing.T) {
	r := faultRun(t, 3, faults.Plan{Faults: []faults.Fault{
		{At: 1, Kind: faults.KillNode, Node: 1},
	}}, faultStreams(3))
	if r.Finished+r.Lost != r.Launched {
		t.Fatalf("accounting broken: %d + %d != %d", r.Finished, r.Lost, r.Launched)
	}
	if r.Finished == 0 {
		t.Fatal("nothing finished with half the pool dead from the start")
	}
	// Completed requests must all have run on node 0's GIDs (0 and 1).
	for _, ev := range r.Requests {
		if ev.Err == "" && ev.GID >= 2 {
			// A request bound to node 1 before the kill landed may legally
			// fail over; but finishing ON a dead GID means the detector and
			// the policy's health skip never engaged.
			if sim.Time(ev.SubmittedUS) > sim.Time(1) {
				t.Fatalf("request submitted after the kill completed on dead GID %d", ev.GID)
			}
		}
	}
}

// TestGPUKillVsNodeKill kills a single GPU: strictly less disruptive than
// killing the whole node, and the pool still completes everything it can.
func TestGPUKillVsNodeKill(t *testing.T) {
	base := faultRun(t, 5, faults.Plan{}, faultStreams(3))
	killAt := base.EndTime / 2
	r := faultRun(t, 5, faults.Plan{Faults: []faults.Fault{
		{At: killAt, Kind: faults.KillGPU, GID: 3},
	}}, faultStreams(3))
	if r.Finished+r.Lost != r.Launched {
		t.Fatalf("accounting broken: %d + %d != %d", r.Finished, r.Lost, r.Launched)
	}
	if r.Finished < base.Finished-base.Launched/2 {
		t.Fatalf("single-GPU kill lost most of the run: finished %d of %d", r.Finished, r.Launched)
	}
}

// TestStallAndDegradeDelayButComplete injects the transient faults: a stall
// and a service-time degradation must delay the run, not break it.
func TestStallAndDegradeDelayButComplete(t *testing.T) {
	base := faultRun(t, 9, faults.Plan{}, faultStreams(2))
	r := faultRun(t, 9, faults.Plan{Faults: []faults.Fault{
		{At: base.EndTime / 4, Kind: faults.StallGPU, GID: 0, Dur: 2 * sim.Second},
		{At: base.EndTime / 4, Kind: faults.DegradeGPU, GID: 1, Factor: 2.0},
	}}, faultStreams(2))
	if r.Lost != 0 {
		t.Fatalf("transient faults lost %d requests", r.Lost)
	}
	if r.Finished != r.Launched {
		t.Fatalf("finished %d of %d under transient faults", r.Finished, r.Launched)
	}
	if r.EndTime <= base.EndTime {
		t.Fatalf("stall+degrade did not extend the run: %v vs %v", r.EndTime, base.EndTime)
	}
}

// TestFaultRunDeterminism runs the same seeded fault scenario twice and
// demands identical results, including the full request log.
func TestFaultRunDeterminism(t *testing.T) {
	base := faultRun(t, 11, faults.Plan{}, faultStreams(3))
	plan := faults.Plan{
		Faults: []faults.Fault{{At: base.EndTime / 2, Kind: faults.KillNode, Node: 1}},
	}
	a := faultRun(t, 11, plan, faultStreams(3))
	b := faultRun(t, 11, plan, faultStreams(3))
	if a.Launched != b.Launched || a.Finished != b.Finished ||
		a.Lost != b.Lost || a.Recovered != b.Recovered || a.EndTime != b.EndTime {
		t.Fatalf("counters diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.SortedRequests(), b.SortedRequests()) {
		t.Fatal("request logs diverged between identical seeded fault runs")
	}
}

// TestFaultsIgnoredInCUDAMode documents the config contract: fault plans
// only apply to the remoting generations.
func TestFaultsIgnoredInCUDAMode(t *testing.T) {
	c, err := New(Config{
		Seed: 1, Nodes: twoGPUNode(), Mode: ModeCUDA,
		Faults: faults.Plan{Faults: []faults.Fault{{At: 1, Kind: faults.KillNode, Node: 0}}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := c.Run(gaStream(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Finished != 3 || r.Lost != 0 {
		t.Fatalf("CUDA-mode run with a fault plan: %+v", r)
	}
}

// TestShorterStallLeavesALongerOne stalls every GPU for 4 s from the start
// and, a millisecond later, for one second: the shorter stall ends inside the
// longer one, so the run is the longer stall's alone, request for request.
func TestShorterStallLeavesALongerOne(t *testing.T) {
	var long, both faults.Plan
	for gid := range 4 {
		f := faults.Fault{At: sim.Millisecond, Kind: faults.StallGPU, GID: gid, Dur: 4 * sim.Second}
		long.Faults = append(long.Faults, f)
		both.Faults = append(both.Faults, f)
		f.At, f.Dur = 2*sim.Millisecond, sim.Second
		both.Faults = append(both.Faults, f)
	}
	a := faultRun(t, 9, long, faultStreams(2))
	b := faultRun(t, 9, both, faultStreams(2))
	if !reflect.DeepEqual(a.SortedRequests(), b.SortedRequests()) {
		t.Fatalf("a shorter stall inside a longer one changed the run: end %v, alone %v", b.EndTime, a.EndTime)
	}
}
