package core

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// After a run drains, the long-lived service processes (device drivers,
// backend accept loops, dispatchers, the mapper) are parked with nothing
// pending — the kernel reports them as blocked, and nothing else leaks.
func TestRunLeavesOnlyServiceProcessesParked(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin", DevPolicy: "LAS"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(gaStream(4))
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	blocked := c.K.Blocked()
	for _, name := range blocked {
		switch {
		case hasPrefix(name, "gpu"), hasPrefix(name, "backend-"),
			hasPrefix(name, "devsched-"), name == "affinity-mapper":
			// expected long-lived services
		case hasPrefix(name, "bt-"):
			t.Fatalf("backend thread %q leaked past its app's exit", name)
		default:
			t.Fatalf("unexpected parked process %q (all: %v)", name, blocked)
		}
	}
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Rain backend processes exit with their application; none may linger.
func TestRainBackendsExitWithApps(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeRain, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.Gaussian, Count: 4, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	for _, name := range c.K.Blocked() {
		if hasPrefix(name, "rain-") {
			t.Fatalf("rain backend %q leaked", name)
		}
	}
}

// An exited Rain or CUDA process gives its context back to the spare list and
// its streams' newest-op events back to the kernel: two hundred applications
// one after another on one GPU leave the device listing none of their
// contexts and at most two spare ones — the last resident's and the one before
// it — and the kernel holding none of its pooled events.
func TestExitedProcessesAreReleased(t *testing.T) {
	for _, mode := range []Mode{ModeRain, ModeCUDA} {
		c, err := newCluster(Config{Seed: 1, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}, Mode: mode}, new(arena))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run([]workload.StreamSpec{{Kind: workload.Gaussian, Count: 200, LambdaFactor: 3, Node: 0, Tenant: 1, Weight: 1}})
		if err != nil || r.Finished != 200 {
			t.Fatalf("%v: %v, finished %d of 200", mode, err, r.Finished)
		}
		d := c.Devices()[0]
		if n, spare := d.Contexts(), c.envs[0].spares.Len(); n != 0 || spare > 2 {
			t.Errorf("%v: the device lists %d contexts and %d are spare after 200 applications, want none and at most 2", mode, n, spare)
		}
		if made, free := c.K.PooledEvents(); made != free {
			t.Errorf("%v: %d of the kernel's %d pooled events are held after the run", mode, made-free, made)
		}
		c.Close()
	}
}

// A run holds no goroutine for its requests, and a closed cluster no process —
// not for the requests it served, not for the service processes a drained run
// leaves parked, not for the applications a horizon cut off mid-call — on
// kernels whose slabs go back to the arena reset, from a cold arena or a warm
// one. Not skipped in -short: it is the leak gate.
func TestCloseLeavesNoRequestGoroutines(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 12, LambdaFactor: 0.2, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: 12, LambdaFactor: 0.2, Node: 1, Tenant: 2, Weight: 1, Style: workload.StylePipelined},
	}
	// Fig 11's shape: two saturating streams on one GPU, cut at a horizon.
	contended := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1, Style: workload.StylePipelined},
		{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}
	oneGPU := []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}
	own := &arena{}
	for _, tc := range []struct {
		name    string
		cfg     Config
		arena   *arena // nil: a cold one every cycle
		horizon sim.Time
	}{
		{"one kernel", Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin"}, nil, 0},
		{"sharded", Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: 1}, nil, 0},
		{"warm", Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin"}, own, 0},
		{"horizon", Config{Seed: 3, Nodes: oneGPU, Mode: ModeStrings, Balance: "GRR", DevPolicy: "TFS"}, nil, 40 * sim.Second},
		{"horizon, warm", Config{Seed: 3, Nodes: oneGPU, Mode: ModeRain, Balance: "GRR", DevPolicy: "TFS"}, own, 40 * sim.Second},
	} {
		for cycle := 0; cycle < 4; cycle++ {
			before := runtime.NumGoroutine()
			a := tc.arena
			if a == nil {
				a = new(arena)
			}
			c, err := newCluster(tc.cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			var r *RunResult
			if tc.horizon > 0 {
				if r, err = c.RunUntil(contended, tc.horizon); err == nil && r.Launched-r.Finished < 20 {
					t.Fatalf("%s: %d applications in flight at the horizon, want at least 20", tc.name, r.Launched-r.Finished)
				}
			} else if r, err = c.Run(streams); err == nil && r.Finished != 24 {
				t.Fatalf("%s: finished %d of 24", tc.name, r.Finished)
			}
			if err != nil || len(r.Errors) > 0 {
				t.Fatalf("%s: run: %v %v", tc.name, err, r.Errors)
			}
			// A goroutine some earlier test left winding down may end in
			// between, so the bounds are one-sided.
			if during := runtime.NumGoroutine() - before; during > 0 {
				t.Fatalf("%s cycle %d: %d goroutines over the baseline with the run over", tc.name, cycle, during)
			}
			envs := c.envs
			c.Close()
			c.Close()
			if after := runtime.NumGoroutine() - before; after > 0 {
				t.Fatalf("%s cycle %d: %d goroutines over the baseline after Close, want none", tc.name, cycle, after)
			}
			for _, e := range envs {
				if n := e.k.ProcCount(); n != 0 {
					t.Fatalf("%s cycle %d: %d processes live on kernel %d after Close: %v", tc.name, cycle, n, e.idx, e.k.Blocked())
				}
			}
		}
	}
}

// TestRunStartsNoGoroutine: every request runs on a daemon, so a run cut off
// with multi-threaded, pipelined or recovering requests in flight holds no
// goroutine for them. The recovering run is TestNodeKillMidRunRecovers's.
func TestRunStartsNoGoroutine(t *testing.T) {
	killAt := faultRun(t, 7, faults.Plan{}, faultStreams(4)).EndTime / 2
	strings := Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin"}
	recovering := strings
	recovering.Seed, recovering.CallTimeout = 7, testCallTimeout
	recovering.Faults.Faults = []faults.Fault{{At: killAt, Kind: faults.KillNode, Node: 1}}
	for _, tc := range []struct {
		cfg     Config
		streams []workload.StreamSpec
		horizon sim.Time
	}{
		{strings, []workload.StreamSpec{{Kind: workload.Gaussian, Count: 8, LambdaFactor: 0.2, Node: 0, Tenant: 1, Weight: 1, Style: workload.StyleMultiThread}}, 2 * sim.Second},
		{strings, []workload.StreamSpec{{Kind: workload.Gaussian, Count: 8, LambdaFactor: 0.2, Node: 0, Tenant: 1, Weight: 1, Style: workload.StylePipelined}}, 2 * sim.Second},
		{recovering, faultStreams(4), killAt + killAt/2},
	} {
		before := runtime.NumGoroutine()
		c, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.RunUntil(tc.streams, tc.horizon)
		if err != nil {
			t.Fatal(err)
		}
		if r.Finished+r.Lost == r.Launched {
			t.Fatalf("%v: all %d requests over by %v, want some in flight", tc.streams[0].Style, r.Launched, tc.horizon)
		}
		if n := runtime.NumGoroutine() - before; n != 0 {
			t.Errorf("%v: %d goroutines over the baseline with %d requests in flight", tc.streams[0].Style, n, r.Launched-r.Finished-r.Lost)
		}
		c.Close()
	}
}
