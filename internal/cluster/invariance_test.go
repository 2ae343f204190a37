package cluster

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// invarianceCfg is the shared scenario of the invariance suite: three
// two-node supernodes under open Poisson arrivals with a big-tenant mix,
// parameterized by the worker count (the axis that must not change anything).
func invarianceCfg(workers int, big bool) Config {
	spec := workload.OpenArrivalSpec{
		Process: workload.ProcPoisson, Rate: 0.4, Horizon: 150 * sim.Second,
		Kind: workload.Gaussian, MeanLife: 30 * sim.Second, Lambda: sim.Second,
		BigEvery: 16, BigSlots: 2,
	}
	if big {
		// The acceptance scenario: ≥1000 tenants, ≥100k requests.
		spec.Rate = 0.5
		spec.Horizon = 2400 * sim.Second
		spec.MeanLife = 80 * sim.Second
		spec.Lambda = 800 * sim.Millisecond
	}
	return Config{
		Seed:       7,
		Supernodes: []Supernode{testSupernode(), testSupernode(), testSupernode()},
		Policy:     PolicyLeastLoaded,
		Arrivals:   spec,
		Workers:    workers,
	}
}

// runInvarianceMatrix executes the scenario at workers=1 twice and at
// workers=8 once, then requires every full Result — request logs, events,
// metrics — to be DeepEqual. Rerun catches nondeterminism, the workers axis
// pins the pool the supernode runs fan out over.
func runInvarianceMatrix(t *testing.T, big bool) *Result {
	t.Helper()
	base, err := Run(invarianceCfg(1, big))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		r, err := Run(invarianceCfg(workers, big))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, r) {
			t.Errorf("workers=%d: cluster result differs from the first workers=1 run", workers)
		}
	}
	return base
}

// checkConservation asserts the tier's conservation laws on a result.
func checkConservation(t *testing.T, r *Result) {
	t.Helper()
	if r.Log.Placed+r.Log.Rejected != r.Log.Born {
		t.Errorf("silent loss: placed %d + rejected %d != born %d", r.Log.Placed, r.Log.Rejected, r.Log.Born)
	}
	if r.Finished != r.Requests {
		t.Errorf("lost requests: finished %d != submitted %d", r.Finished, r.Requests)
	}
	placed := 0
	for _, sn := range r.Supernodes {
		placed += sn.Placed
	}
	if placed != r.Log.Placed {
		t.Errorf("supernode placed sum %d != placement log %d", placed, r.Log.Placed)
	}
}

// TestClusterInvarianceQuick is the always-on (race-friendly) instance of
// the invariance matrix at small scale.
func TestClusterInvarianceQuick(t *testing.T) {
	r := runInvarianceMatrix(t, false)
	checkConservation(t, r)
	if r.Log.Born < 30 || r.Requests < 1000 {
		t.Errorf("quick scenario too small to mean anything: born %d, requests %d", r.Log.Born, r.Requests)
	}
}

// TestClusterPinnedScenario is the acceptance scenario: ≥3 supernodes,
// ≥1000 tenants, ≥100k requests through open arrivals, DeepEqual-identical
// across reruns and workers 1 vs 8, with conservation enforced.
func TestClusterPinnedScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale cluster invariance matrix")
	}
	r := runInvarianceMatrix(t, true)
	checkConservation(t, r)
	if len(r.Supernodes) < 3 {
		t.Errorf("pinned scenario has %d supernodes, want >= 3", len(r.Supernodes))
	}
	if r.Log.Born < 1000 {
		t.Errorf("pinned scenario born %d tenants, want >= 1000", r.Log.Born)
	}
	if r.Requests < 100000 {
		t.Errorf("pinned scenario submitted %d requests, want >= 100000", r.Requests)
	}
	if r.Log.Parked == 0 {
		t.Error("pinned scenario never parked a tenant; admission control untested")
	}
	if r.Log.Conflicts == 0 {
		t.Error("pinned scenario saw no snapshot conflicts; optimism untested")
	}
}
