// Cloudserver: a multi-tenant GPU cloud server in the paper's service model.
// Three tenants stream different application classes (image processing,
// financial pricing, search-style scans) at one two-GPU node; the example
// sweeps the workload-balancing policies and reports per-tenant latency and
// total device utilization under each.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workload"
)

func main() {
	streams := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 5, LambdaFactor: 0.7, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.MonteCarlo, Count: 10, LambdaFactor: 0.5, Node: 0, Tenant: 2, Weight: 1},
		{Kind: workload.Scan, Count: 6, LambdaFactor: 0.7, Node: 0, Tenant: 3, Weight: 1},
	}

	fmt.Println("Three tenants (DC, MC, SC streams) on one node with two GPUs, Strings runtime")
	fmt.Println()
	fmt.Printf("%-8s %12s %12s %12s %14s\n", "policy", "DC avg", "MC avg", "SC avg", "GPU busy (s)")
	for _, policy := range []string{"GRR", "GMin", "GWtMin", "RTF", "GUF", "DTF", "MBF"} {
		cluster, err := core.New(core.Config{
			Seed: 7,
			Nodes: []core.NodeConfig{{Devices: []gpu.Spec{
				gpu.Quadro2000, gpu.TeslaC2050,
			}}},
			Mode:    core.ModeStrings,
			Balance: policy,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		r, err := cluster.Run(streams)
		if err != nil {
			log.Fatal(err)
		}
		if len(r.Errors) > 0 {
			log.Fatalf("%s: application errors: %v", policy, r.Errors)
		}
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
