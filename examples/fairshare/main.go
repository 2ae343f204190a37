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

	"repro/internal/metrics"
	"repro/internal/scenario"
)

func main() {
	// One Tesla C2050; both tenants keep it busy through a 40 s window.
	const run = "fleet=TeslaC2050;balance=GRR;streams=HI:10/every=1s/weight=3,MC:40/every=500ms;horizon=40s;seed=3"
	fmt.Println("Tenant 1 (HI stream, weight 3) vs tenant 2 (MC stream, weight 1),")
	fmt.Println("one Tesla C2050, 40 s contention window")
	fmt.Println()
	for _, sys := range []struct{ label, scenario string }{
		{"bare CUDA runtime", "mode=cuda"},
		{"Strings + TFS", "mode=strings;dev=TFS"},
	} {
		sc, err := scenario.Parse(run + ";" + sys.scenario)
		if err != nil {
			log.Fatal(err)
		}
		cluster, r, err := sc.Run(scenario.Env{})
		if err != nil {
			log.Fatal(err)
		}
		cluster.Close()
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
