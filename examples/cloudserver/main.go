// Cloudserver: a multi-tenant GPU cloud server in the paper's service model.
// Three tenants stream different application classes (image processing,
// financial pricing, search-style scans) at one two-GPU node; the example
// sweeps the workload-balancing policies and reports per-tenant latency and
// total device utilization under each.
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	// The default fleet, one node with a Quadro 2000 and a Tesla C2050. The
	// MC tenant arrives faster than the other two.
	const run = "mode=strings;streams=DC:5,MC:10/lambda=0.5,SC:6;lambda=0.7;seed=7"

	fmt.Println("Three tenants (DC, MC, SC streams) on one node with two GPUs, Strings runtime")
	fmt.Println()
	fmt.Printf("%-8s %12s %12s %12s %14s\n", "policy", "DC avg", "MC avg", "SC avg", "GPU busy (s)")
	for _, policy := range []string{"GRR", "GMin", "GWtMin", "RTF", "GUF", "DTF", "MBF"} {
		sc, err := scenario.Parse(run + ";balance=" + policy)
		if err != nil {
			log.Fatal(err)
		}
		cluster, r, err := sc.Run(scenario.Env{})
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		defer cluster.Close()
		var busy float64
		for _, d := range cluster.Devices() {
			st := d.Stats()
			busy += (float64(st.ComputeBusy) + float64(st.H2DBusy) + float64(st.D2HBusy)) / 1e6
		}
		fmt.Printf("%-8s %12v %12v %12v %14.1f\n", policy,
			r.AvgCompletion(workload.DXTC),
			r.AvgCompletion(workload.MonteCarlo),
			r.AvgCompletion(workload.Scan),
			busy)
	}
	fmt.Println()
	fmt.Println("Feedback policies (RTF..MBF) start as GWtMin and switch once the")
	fmt.Println("Scheduler Feedback Table has per-class history (the Policy Arbiter).")
}
