package core

import (
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyGPU is a device whose memory only fits one application buffer at a
// time, so piled-up requests exhaust it without admission control.
func tinyGPU() []NodeConfig {
	spec := gpu.TeslaC2050
	spec.MemBytes = int64(workload.ProfileFor(workload.MonteCarlo).BufBytes) + (1 << 20)
	return []NodeConfig{{Devices: []gpu.Spec{spec}}}
}

// burst is a stream dense enough that several requests coexist.
func burst() []workload.StreamSpec {
	return []workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 4, Lambda: sim.Second,
		Node: 0, Tenant: 1, Weight: 1,
	}}
}

func TestWithoutMemoryGuardBurstOOMs(t *testing.T) {
	c, err := New(Config{Seed: 2, Nodes: tinyGPU(), Mode: ModeStrings, Balance: "GRR"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(burst())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) == 0 {
		t.Fatal("expected out-of-memory failures without the guard")
	}
	for _, e := range r.Errors {
		if !strings.Contains(e, "out of memory") {
			t.Fatalf("unexpected error: %s", e)
		}
	}
}

func TestMemoryGuardAdmitsBurst(t *testing.T) {
	c, err := New(Config{Seed: 2, Nodes: tinyGPU(), Mode: ModeStrings,
		Balance: "GRR", BlockOnOOM: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(burst())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("guarded run failed: %v", r.Errors)
	}
	if r.Finished != 4 {
		t.Fatalf("finished %d of 4", r.Finished)
	}
	// Memory never overshot capacity.
	if hw := c.Devices()[0].Stats().MemHighWater; hw > c.Devices()[0].Spec().MemBytes {
		t.Fatalf("high water %d exceeded capacity", hw)
	}
}

func TestMemoryGuardPreservesThroughputWhenUncontended(t *testing.T) {
	run := func(guard bool) sim.Time {
		cfg := Config{Seed: 3, Nodes: twoGPUNode(), Mode: ModeStrings,
			Balance: "GMin", BlockOnOOM: guard}
		r := mustRun(t, cfg, gaStream(4))
		return r.AvgCompletion(workload.Gaussian)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("guard changed uncontended completion: %v vs %v", a, b)
	}
}
