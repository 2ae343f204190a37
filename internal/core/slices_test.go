package core

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// migNode is one node with two MIG-capable devices.
func migNode() []NodeConfig {
	return []NodeConfig{{Devices: []gpu.Spec{
		gpu.TeslaC2050.WithMIG(), gpu.TeslaC2050.WithMIG(),
	}}}
}

func sliceStream(tenant int64, profile string, n int) workload.StreamSpec {
	return workload.StreamSpec{
		Kind: workload.Gaussian, Count: n, Lambda: sim.Second, Node: 0,
		Tenant: tenant, Weight: 1, SliceProfile: profile,
	}
}

// TestSliceRunEndToEnd drives three tenants with distinct profiles through a
// two-device MIG fleet and checks the carve/release ledger balances.
func TestSliceRunEndToEnd(t *testing.T) {
	cfg := Config{Seed: 1, Nodes: migNode(), Mode: ModeStrings, Balance: "Frag"}
	r := mustRun(t, cfg, []workload.StreamSpec{
		sliceStream(1, "1g", 4),
		sliceStream(2, "3g", 4),
		sliceStream(3, "2g", 4),
	})
	if r.SliceCarves != 3 {
		t.Fatalf("SliceCarves = %d, want 3 (one slice per tenant)", r.SliceCarves)
	}
	if r.SliceReleases != 3 {
		t.Fatalf("SliceReleases = %d, want 3", r.SliceReleases)
	}
	if got := len(r.AdmissionWaits); got != 3 {
		t.Fatalf("len(AdmissionWaits) = %d, want 3", got)
	}
	if got := len(r.Completions(workload.Gaussian)); got != 12 {
		t.Fatalf("completions = %d, want 12", got)
	}
	if r.StrandedHorizon <= 0 {
		t.Fatal("stranded horizon not recorded")
	}
	if ratio := r.StrandedRatio(); ratio < 0 || ratio > 1 {
		t.Fatalf("StrandedRatio = %v, want within [0,1]", ratio)
	}
}

// TestSliceParkAndAdmit overcommits a single device so a tenant must park
// until an earlier tenant departs, and checks the admission wait is recorded.
func TestSliceParkAndAdmit(t *testing.T) {
	oneDev := []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050.WithMIG()}}}
	cfg := Config{Seed: 2, Nodes: oneDev, Mode: ModeStrings, Balance: "Frag"}
	// Two 7g tenants: only one full-device slice exists, so whichever tenant
	// arrives second parks until the first finishes all its requests.
	r := mustRun(t, cfg, []workload.StreamSpec{
		sliceStream(1, "7g", 3),
		sliceStream(2, "7g", 3),
	})
	if r.SliceCarves != 2 || r.SliceReleases != 2 {
		t.Fatalf("carves/releases = %d/%d, want 2/2", r.SliceCarves, r.SliceReleases)
	}
	if r.SliceParks == 0 {
		t.Fatal("expected at least one parked placement attempt")
	}
	var waited int
	for _, w := range r.AdmissionWaits {
		if w > 0 {
			waited++
		}
	}
	if waited != 1 {
		t.Fatalf("tenants with nonzero admission wait = %d, want exactly 1", waited)
	}
}

// TestSliceMixedWithClassic runs slice tenants next to a classic shared-device
// tenant; the classic tenant must land on whole-device rows only.
func TestSliceMixedWithClassic(t *testing.T) {
	nodes := []NodeConfig{{Devices: []gpu.Spec{
		gpu.TeslaC2050.WithMIG(), gpu.Quadro2000,
	}}}
	cfg := Config{Seed: 3, Nodes: nodes, Mode: ModeStrings, Balance: "Frag"}
	r := mustRun(t, cfg, []workload.StreamSpec{
		sliceStream(1, "3g", 3),
		{Kind: workload.Gaussian, Count: 3, Lambda: sim.Second, Node: 0, Tenant: 2, Weight: 1},
	})
	if r.SliceCarves != 1 || r.SliceReleases != 1 {
		t.Fatalf("carves/releases = %d/%d, want 1/1", r.SliceCarves, r.SliceReleases)
	}
	if got := len(r.Completions(workload.Gaussian)); got != 6 {
		t.Fatalf("completions = %d, want 6", got)
	}
}

// TestSliceRunDeterministic re-runs the same sliced config and requires
// byte-identical outcome summaries.
func TestSliceRunDeterministic(t *testing.T) {
	run := func() *RunResult {
		cfg := Config{Seed: 7, Nodes: migNode(), Mode: ModeStrings, Balance: "Frag"}
		return mustRun(t, cfg, []workload.StreamSpec{
			sliceStream(1, "2g", 5),
			sliceStream(2, "4g", 5),
			sliceStream(3, "7g", 5),
			sliceStream(4, "1g", 5),
		})
	}
	a, b := run(), run()
	if a.EndTime != b.EndTime {
		t.Fatalf("EndTime differs: %v vs %v", a.EndTime, b.EndTime)
	}
	if a.SliceCarves != b.SliceCarves || a.SliceParks != b.SliceParks {
		t.Fatalf("carves/parks differ: %d/%d vs %d/%d",
			a.SliceCarves, a.SliceParks, b.SliceCarves, b.SliceParks)
	}
	if a.StrandedIntegral != b.StrandedIntegral {
		t.Fatalf("StrandedIntegral differs: %v vs %v", a.StrandedIntegral, b.StrandedIntegral)
	}
	if len(a.AdmissionWaits) != len(b.AdmissionWaits) {
		t.Fatalf("AdmissionWaits length differs")
	}
	for i := range a.AdmissionWaits {
		if a.AdmissionWaits[i] != b.AdmissionWaits[i] {
			t.Fatalf("AdmissionWaits[%d] differs: %v vs %v", i, a.AdmissionWaits[i], b.AdmissionWaits[i])
		}
	}
}

// TestSliceNeedsStringsMode rejects slice streams outside ModeStrings.
func TestSliceNeedsStringsMode(t *testing.T) {
	c, err := New(Config{Seed: 1, Nodes: migNode(), Mode: ModeRain, Balance: "GRR"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run([]workload.StreamSpec{sliceStream(1, "1g", 1)}); err == nil {
		t.Fatal("want error for slice stream in ModeRain")
	}
}

// TestSliceUnknownProfile rejects profile names no device offers.
func TestSliceUnknownProfile(t *testing.T) {
	c, err := New(Config{Seed: 1, Nodes: migNode(), Mode: ModeStrings, Balance: "Frag"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run([]workload.StreamSpec{sliceStream(1, "9g", 1)}); err == nil {
		t.Fatal("want error for unknown slice profile")
	}
	cNoMIG, err := New(Config{Seed: 1, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := cNoMIG.Run([]workload.StreamSpec{sliceStream(1, "1g", 1)}); err == nil {
		t.Fatal("want error when no device is partitionable")
	}
}
