package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runOn builds cfg on slabs of a, runs streams to completion or to horizon
// (when not 0), and closes the cluster.
func runOn(t *testing.T, a *arena, cfg Config, streams []workload.StreamSpec, horizon sim.Time) *RunResult {
	t.Helper()
	c, err := newCluster(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := c.Run
	if horizon > 0 {
		run = func(s []workload.StreamSpec) (*RunResult, error) { return c.RunUntil(s, horizon) }
	}
	r, err := run(streams)
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("%v %v", err, r.Errors)
	}
	return r
}

// TestArenaReuses: a closed cluster's slab is the next cluster's, its kernel
// reset, and the sessions and frontends a horizon cut off mid-call back on the
// free lists with the ones that had exited. The slab keeps nothing of the
// closed cluster's a caller may still read: its mapper is gone from it, and its
// result is the caller's alone.
func TestArenaReuses(t *testing.T) {
	var a arena
	cfg := Config{Seed: 3, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}},
		Mode: ModeRain, Balance: "GRR", DevPolicy: "TFS"}
	contended := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}
	c, err := newCluster(cfg, &a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.RunUntil(contended, 40*sim.Second)
	if err != nil || r.Launched-r.Finished < 20 {
		t.Fatalf("%v: %d applications in flight at the horizon, want at least 20", err, r.Launched-r.Finished)
	}
	k, s := c.K, c.envs[0]
	c.Close()
	if len(s.sessions) != len(s.made.sessions) || len(s.frontends) != len(s.made.frontends) {
		t.Fatalf("%d of %d sessions and %d of %d frontends back on the free lists, want all",
			len(s.sessions), len(s.made.sessions), len(s.frontends), len(s.made.frontends))
	}
	if c.Mapper() != nil || len(c.Devices()) != 0 || s.results != nil {
		t.Fatalf("after Close the cluster holds mapper %p and %d devices and its slab result %p, want none",
			c.Mapper(), len(c.Devices()), s.results)
	}
	launched, logged := r.Launched, len(r.Requests)
	c, err = newCluster(cfg, &a)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.K != k || c.K.Now() != 0 || c.K.Dispatched() != 0 {
		t.Fatalf("the next cluster got kernel %p at %v after %d dispatches, want %p reset", c.K, c.K.Now(), c.K.Dispatched(), k)
	}
	if _, err := c.RunUntil(contended, 40*sim.Second); err != nil || r.Launched != launched || len(r.Requests) != logged {
		t.Fatalf("%v: the next cluster's run moved the last one's result to %d launched and %d logged, from %d and %d",
			err, r.Launched, len(r.Requests), launched, logged)
	}
}

// TestArenaSlabsStayBounded: every device, device scheduler and packer goes
// back to the slab of the kernel it ran on, so clusters built and closed in
// turn leave each slab the two its kernel served, and the arena no more slabs
// than one cluster's kernels.
func TestArenaSlabsStayBounded(t *testing.T) {
	var a arena
	cfg := Config{Seed: 1, Mode: ModeStrings, Balance: "GMin", Shards: 1,
		Nodes: append(supernode(), supernode()...)}
	for range 5 {
		c, err := newCluster(cfg, &a)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Sharded() {
			t.Fatal("the 4-node fleet did not shard")
		}
		c.Close()
	}
	if len(a.free) > 4 {
		t.Fatalf("the arena holds %d slabs, want at most 4", len(a.free))
	}
	for i, s := range a.free {
		if len(s.devices) > 2 || len(s.scheds) > 2 || len(s.packers) > 2 {
			t.Fatalf("slab %d holds %d devices, %d schedulers and %d packers, want at most 2 each",
				i, len(s.devices), len(s.scheds), len(s.packers))
		}
	}
}

// TestArenaTakesBackAFrontendMidCall: a horizon may fall inside any wait of a
// frontend — here each microsecond of a Strings request's first calls, the
// device selection's included — and the run after it on the same slab leaves
// the request log a cold run leaves.
func TestArenaTakesBackAFrontendMidCall(t *testing.T) {
	cfg := Config{Seed: 1, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}
	stream := []workload.StreamSpec{{Kind: workload.Gaussian, Count: 1, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1}}
	want := runOn(t, new(arena), cfg, stream, 0)
	at := sim.Time(want.Requests[0].SubmittedUS)
	for h := sim.Time(0); h < 40; h++ {
		var a arena
		runOn(t, &a, cfg, stream, at+h)
		if got := runOn(t, &a, cfg, stream, 0); !reflect.DeepEqual(got.Requests, want.Requests) {
			t.Fatalf("cut %v into the request, the next run on the slab logs %+v, a cold one %+v", h, got.Requests, want.Requests)
		}
	}
}

// TestArenaPutEndsProcesses: Close unwinds what a horizon left parked on an
// arena's kernel before the slab goes back, so a pooled kernel holds no
// process and no goroutine, and the next run on it starts clean.
func TestArenaPutEndsProcesses(t *testing.T) {
	var a arena
	cfg := Config{Seed: 3, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}},
		Mode: ModeRain, Balance: "GRR", DevPolicy: "TFS"}
	contended := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}
	run := func() *sim.Kernel {
		before := runtime.NumGoroutine()
		c, err := newCluster(cfg, &a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunUntil(contended, 40*sim.Second); err != nil {
			t.Fatal(err)
		}
		k := c.K
		if n := k.ProcCount(); n == 0 {
			t.Fatal("no process parked at the horizon")
		}
		c.Close()
		if n := k.ProcCount(); n != 0 {
			t.Fatalf("Close left %d processes on the pooled kernel: %v", n, k.Blocked())
		}
		// A goroutine some earlier test left winding down may end in
		// between, so the bound is one-sided.
		if n := runtime.NumGoroutine() - before; n > 0 {
			t.Fatalf("%d goroutines over the baseline after Close, want none", n)
		}
		return k
	}
	k1 := run()
	if k2 := run(); k2 != k1 {
		t.Fatal("the second run did not reuse the pooled kernel")
	}
}

// TestWarmRunSizesTheRequestLogOnce: a run sizes each request log once, for
// the Counts of the streams it is given, in the sink that logs them: the
// cluster's on one kernel, and sharded kernel 0's, which collect folds the
// other kernels' into, and theirs. So a log never grows by doubling, and a
// warm run of a dozen requests on one kernel allocates its cluster, its
// result with the log, and its streams' arrivals, and nothing else: 9
// allocations, which read 11 while each stream drew from a fresh source, and
// 16 while the log doubled its way to 16 entries and every New bound the
// mapper daemon's step anew.
func TestWarmRunSizesTheRequestLogOnce(t *testing.T) {
	const budget = 9 // measured 9
	streams := []workload.StreamSpec{
		{Kind: workload.MonteCarlo, Count: 8, LambdaFactor: 0.6, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.DXTC, Count: 4, LambdaFactor: 0.6, Node: 1, Tenant: 2, Weight: 1},
	}
	room := cap(slices.Grow([]RequestEvent(nil), 12)) // one allocation's, rounded up to its size class
	for _, shards := range []int{0, 1} {
		var a arena
		cfg := Config{Seed: 1, Mode: ModeStrings, Balance: "GMin", DevPolicy: "TFS", Shards: shards, Nodes: supernode()}
		if r := runOn(t, &a, cfg, streams, 0); len(r.Requests) != 12 || cap(r.Requests) != room {
			t.Fatalf("shards %d: the log holds %d requests in room for %d, want 12 in %d", shards, len(r.Requests), cap(r.Requests), room)
		}
		if shards == 1 || testing.Short() {
			continue // a sharded run builds a coordinator over its kernels; -race allocates on its own
		}
		got := testing.AllocsPerRun(20, func() { runOn(t, &a, cfg, streams, 0) })
		t.Logf("%.0f allocations a warm run of 12 requests (budget %d)", got, budget)
		if got > budget {
			t.Errorf("a warm run of 12 requests allocates %.0f times, budget %d", got, budget)
		}
	}
}
