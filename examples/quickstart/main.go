// Quickstart: a two-GPU server receives a burst of Monte Carlo requests and
// serves them three ways — the bare CUDA runtime (static provisioning), the
// Rain scheduler (per-application backend processes), and Strings (context
// packing + phase-selection scheduling) — then prints the average request
// completion time of each.
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// One node with a Quadro 2000 and a Tesla C2050 (the scenario default);
	// 8 Monte Carlo requests, mean inter-arrival half the solo runtime.
	const run = "streams=MC:8;lambda=0.5;seed=42"
	configs := []struct{ label, scenario string }{
		{"CUDA runtime (static provisioning)", "mode=cuda"},
		{"Rain (GMin balancing)", "mode=rain"},
		{"Strings (GMin balancing + PS scheduling)", "mode=strings;dev=PS"},
	}

	fmt.Println("8 Monte Carlo requests, one node with a Quadro 2000 and a Tesla C2050")
	fmt.Println()
	var baseline sim.Time
	for _, c := range configs {
		sc, err := scenario.Parse(c.scenario + ";" + run)
		if err != nil {
			log.Fatal(err)
		}
		cluster, r, err := sc.Run(scenario.Env{})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		avg := r.AvgCompletion(workload.MonteCarlo)
		if baseline == 0 {
			baseline = avg
		}
		fmt.Printf("%-44s avg completion %8v   speedup %.2fx\n",
			c.label, avg, float64(baseline)/float64(avg))
	}
}
