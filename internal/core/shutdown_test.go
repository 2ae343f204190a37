package core

import (
	"runtime"
	"testing"

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

// A closed cluster holds no goroutine at all — not for the requests it served,
// not for the service processes a drained run leaves parked, not for the
// applications a horizon cut off mid-call — on kernels New created; a
// caller's kernel keeps its coroutines for the caller's next run and gives
// them up on its own Close. Not skipped in -short: it is the leak gate.
func TestCloseLeavesNoRequestGoroutines(t *testing.T) {
	// A sync application runs on a daemon, so one stream of each shape is
	// pipelined: its applications are coroutines, and goroutines.
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
	own := sim.NewKernel(0)
	for _, tc := range []struct {
		name    string
		cfg     Config
		horizon sim.Time
	}{
		{"one kernel", Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin"}, 0},
		{"sharded", Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: 1}, 0},
		{"caller's kernel", Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Kernel: own}, 0},
		{"horizon", Config{Seed: 3, Nodes: oneGPU, Mode: ModeStrings, Balance: "GRR", DevPolicy: "TFS"}, 40 * sim.Second},
		{"horizon, caller's kernel", Config{Seed: 3, Nodes: oneGPU, Mode: ModeRain, Balance: "GRR", DevPolicy: "TFS", Kernel: own}, 40 * sim.Second},
	} {
		for cycle := 0; cycle < 4; cycle++ {
			before := runtime.NumGoroutine()
			c, err := New(tc.cfg)
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
			during := runtime.NumGoroutine() - before
			c.Close()
			c.Close()
			after := runtime.NumGoroutine() - before
			if tc.cfg.Kernel != nil {
				if after <= 0 {
					t.Fatalf("%s cycle %d: Close took the caller's kernel from %d goroutines to %d", tc.name, cycle, during, after)
				}
				own.Close()
				after = runtime.NumGoroutine() - before
			}
			// A goroutine some earlier test left winding down may end in
			// between, so the bound is one-sided.
			if during <= 0 || after > 0 {
				t.Fatalf("%s cycle %d: %d goroutines over the baseline before Close, %d after, want none",
					tc.name, cycle, during, after)
			}
			for _, e := range c.envs {
				if n := e.k.ProcCount(); n != 0 {
					t.Fatalf("%s cycle %d: %d processes live on kernel %d after Close: %v", tc.name, cycle, n, e.idx, e.k.Blocked())
				}
			}
		}
	}
}
