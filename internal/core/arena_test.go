package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestArenaReuses: a closed cluster's slab is the next cluster's, its kernel
// reset, and the sessions and frontends a horizon cut off mid-call back on the
// free lists with the ones that had exited.
func TestArenaReuses(t *testing.T) {
	var a Arena
	cfg := Config{Seed: 3, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}},
		Mode: ModeRain, Balance: "GRR", DevPolicy: "TFS", Arena: &a}
	contended := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.RunUntil(contended, 40*sim.Second)
	if err != nil || r.Launched-r.Finished < 20 {
		t.Fatalf("%v: %d applications in flight at the horizon, want at least 20", err, r.Launched-r.Finished)
	}
	k, s := c.K, c.envs[0].slab
	c.Close()
	if len(s.sessions) != len(s.made.sessions) || len(s.frontends) != len(s.made.frontends) {
		t.Fatalf("%d of %d sessions and %d of %d frontends back on the free lists, want all",
			len(s.sessions), len(s.made.sessions), len(s.frontends), len(s.made.frontends))
	}
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.K != k || c.K.Now() != 0 || c.K.Dispatched() != 0 {
		t.Fatalf("the next cluster got kernel %p at %v after %d dispatches, want %p reset", c.K, c.K.Now(), c.K.Dispatched(), k)
	}
}

// TestArenaTakesBackAFrontendMidCall: a horizon may fall inside any wait of a
// frontend — here each microsecond of a Strings request's first calls, the
// device selection's included — and the run after it on the same slab leaves
// the request log a cold run leaves.
func TestArenaTakesBackAFrontendMidCall(t *testing.T) {
	cfg := Config{Seed: 1, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}
	stream := []workload.StreamSpec{{Kind: workload.Gaussian, Count: 1, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1}}
	want := mustRun(t, cfg, stream)
	at := sim.Time(want.Requests[0].SubmittedUS)
	for h := sim.Time(0); h < 40; h++ {
		var a Arena
		cfg.Arena = &a
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunUntil(stream, at+h); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if got := mustRun(t, cfg, stream); !reflect.DeepEqual(got.Requests, want.Requests) {
			t.Fatalf("cut %v into the request, the next run on the slab logs %+v, a cold one %+v", h, got.Requests, want.Requests)
		}
	}
}

// TestArenaPutEndsProcesses: Close unwinds what a horizon left parked on an
// arena's kernel before the slab goes back, so a pooled kernel holds no
// process and no goroutine, and the next run on it starts clean.
func TestArenaPutEndsProcesses(t *testing.T) {
	var a Arena
	cfg := Config{Seed: 3, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}},
		Mode: ModeRain, Balance: "GRR", DevPolicy: "TFS", Arena: &a}
	contended := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}
	run := func() *sim.Kernel {
		before := runtime.NumGoroutine()
		c, err := New(cfg)
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
