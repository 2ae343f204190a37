// Supernode: the paper's emulated high-end server — two dual-GPU nodes
// aggregated into a single four-GPU gPool via GPU remoting. A long-running
// stream arrives at node 0 and a short-running stream at node 1; the
// workload balancer serves both from the whole pool, placing some requests
// on remote GPUs across the interconnect. The example prints the gMap, the
// per-device kernel counts, and the weighted speedup of the memory-bandwidth
// feedback policy over plain round robin.
package main

import (
	"fmt"
	"log"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

func run(balance string) (*core.RunResult, *core.Cluster) {
	sc, err := scenario.Parse("fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070;mode=strings;" +
		"streams=HI:6,MC:10@1;lambda=0.5;seed=11;balance=" + balance)
	if err != nil {
		log.Fatal(err)
	}
	cluster, r, err := sc.Run(scenario.Env{})
	if err != nil {
		log.Fatalf("%s: %v", balance, err)
	}
	return r, cluster
}

func main() {
	base, cluster := run("GRR")
	// The DST's (GID, Node, LocalDev) columns are the paper's gMap (Fig. 4).
	dst := cluster.Mapper().DST()
	fmt.Println("gPool of the emulated supernode (two nodes, four GPUs):")
	fmt.Println("gid (nid, lid)")
	for _, e := range dst.Entries() {
		fmt.Printf("%3d  (%d, %d)  %s\n", e.GID, e.Node, e.LocalDev, e.Name)
	}
	fmt.Println()

	fmt.Println("Per-device work under GRR (HI stream at node 0, MC stream at node 1):")
	for gid, d := range cluster.Devices() {
		st := d.Stats()
		fmt.Printf("  GID %d (%s, node %d): %3d kernels, %3d copies\n",
			gid, d.Spec().Name, dst.Entry(balancer.GID(gid)).Node, st.KernelsDone, st.CopiesDone)
	}
	fmt.Println()

	mbf, _ := run("MBF")
	ws := metrics.WeightedSpeedup(
		[]sim.Time{base.AvgCompletion(workload.Histogram), base.AvgCompletion(workload.MonteCarlo)},
		[]sim.Time{mbf.AvgCompletion(workload.Histogram), mbf.AvgCompletion(workload.MonteCarlo)},
	)
	fmt.Printf("HI avg: GRR %v → MBF %v\n",
		base.AvgCompletion(workload.Histogram), mbf.AvgCompletion(workload.Histogram))
	fmt.Printf("MC avg: GRR %v → MBF %v\n",
		base.AvgCompletion(workload.MonteCarlo), mbf.AvgCompletion(workload.MonteCarlo))
	fmt.Printf("weighted speedup of MBF over GRR: %.2fx\n", ws)
}
