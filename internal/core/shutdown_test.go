package core

import (
	"runtime"
	"testing"

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

// A closed cluster holds no goroutine for the requests it served: build/run/
// close cycles grow the goroutine count by the long-lived service processes
// each run leaves parked mid-body (abandoned, as ever) and by nothing that
// scales with the requests, on kernels New created; a caller's kernel keeps
// its idle coroutines for the caller's next run and gives them up on its own
// Close.
func TestCloseLeavesNoRequestGoroutines(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 12, LambdaFactor: 0.2, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: 12, LambdaFactor: 0.2, Node: 1, Tenant: 2, Weight: 1},
	}
	own := sim.NewKernel(0)
	for _, cfg := range []Config{
		{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin"},
		{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: 1},
		{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Kernel: own},
	} {
		for cycle := 0; cycle < 4; cycle++ {
			before := runtime.NumGoroutine()
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Run(streams)
			if err != nil || len(r.Errors) > 0 || r.Finished != 24 {
				t.Fatalf("run: %v %v, finished %d", err, r.Errors, r.Finished)
			}
			// The parked services that are coroutines: everything but the
			// device drivers and dispatchers, which are daemons.
			parked := 0
			for _, e := range c.envs {
				for _, name := range e.k.Blocked() {
					if !hasPrefix(name, "gpu") && !hasPrefix(name, "devsched-") {
						parked++
					}
				}
			}
			during := runtime.NumGoroutine() - before
			c.Close()
			c.Close()
			after := runtime.NumGoroutine() - before
			if cfg.Kernel != nil {
				if after <= parked {
					t.Fatalf("cycle %d: Close took the caller's kernel from %d goroutines to %d", cycle, during, after)
				}
				own.Close()
				after = runtime.NumGoroutine() - before
			}
			// A goroutine some earlier test left winding down may end in
			// between, so the bound is one-sided.
			if during <= parked || after > parked {
				t.Fatalf("shards=%d own=%v cycle %d: %d goroutines before Close, %d after, with %d service processes parked",
					cfg.Shards, cfg.Kernel != nil, cycle, during, after, parked)
			}
		}
	}
}
