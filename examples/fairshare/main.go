// Fairshare: two tenants with 3:1 weights share a single GPU under the TFS
// (True Fair-Share) device scheduler. Both tenants keep the device
// backlogged through a fixed contention window; the example reports each
// tenant's attained GPU service, the weighted allocations, and Jain's
// fairness index — and contrasts the same window under the bare CUDA
// runtime, which has no notion of tenants at all.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func measure(mode core.Mode, devPolicy string) *core.RunResult {
	cluster, err := core.New(core.Config{
		Seed: 3,
		Nodes: []core.NodeConfig{
			{Devices: []gpu.Spec{gpu.TeslaC2050}},
		},
		Mode:      mode,
		Balance:   "GRR",
		DevPolicy: devPolicy,
	})
	if err != nil {
		log.Fatal(err)
	}
	r, err := cluster.RunUntil([]workload.StreamSpec{
		{Kind: workload.Histogram, Count: 10, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 3},
		{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}, 40*sim.Second)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	fmt.Println("Tenant 1 (HI stream, weight 3) vs tenant 2 (MC stream, weight 1),")
	fmt.Println("one Tesla C2050, 40 s contention window")
	fmt.Println()
	for _, sys := range []struct {
		label string
		mode  core.Mode
		dev   string
	}{
		{"bare CUDA runtime", core.ModeCUDA, ""},
		{"Strings + TFS", core.ModeStrings, "TFS"},
	} {
		r := measure(sys.mode, sys.dev)
		s1, s2 := r.TenantService[1], r.TenantService[2]
		alloc := r.FairnessAllocations()
		fmt.Printf("%s:\n", sys.label)
		fmt.Printf("  tenant 1 attained %v, tenant 2 attained %v (ratio %.2f, weights want 3.00)\n",
			s1, s2, float64(s1)/float64(s2))
		fmt.Printf("  weighted allocations %.2fs vs %.2fs → Jain fairness %.3f\n",
			alloc[0]/1e6, alloc[1]/1e6, metrics.JainFairness(alloc))
		fmt.Println()
	}
}
