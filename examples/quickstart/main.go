// Quickstart: a two-GPU server receives a burst of Monte Carlo requests and
// serves them three ways — the bare CUDA runtime (static provisioning), the
// Rain scheduler (per-application backend processes), and Strings (context
// packing + phase-selection scheduling) — then prints the average request
// completion time of each.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	stream := []workload.StreamSpec{{
		Kind:         workload.MonteCarlo,
		Count:        8,
		LambdaFactor: 0.5, // mean inter-arrival = half the solo runtime
		Node:         0,
		Tenant:       1,
		Weight:       1,
	}}

	configs := []struct {
		label string
		mode  core.Mode
		dev   string
	}{
		{"CUDA runtime (static provisioning)", core.ModeCUDA, ""},
		{"Rain (GMin balancing)", core.ModeRain, "none"},
		{"Strings (GMin balancing + PS scheduling)", core.ModeStrings, "PS"},
	}

	fmt.Println("8 Monte Carlo requests, one node with a Quadro 2000 and a Tesla C2050")
	fmt.Println()
	var baseline sim.Time
	for _, c := range configs {
		cluster, err := core.New(core.Config{
			Seed: 42,
			Nodes: []core.NodeConfig{{Devices: []gpu.Spec{
				gpu.Quadro2000, gpu.TeslaC2050,
			}}},
			Mode:      c.mode,
			Balance:   "GMin",
			DevPolicy: c.dev,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		r, err := cluster.Run(stream)
		if err != nil {
			log.Fatal(err)
		}
		if len(r.Errors) > 0 {
			log.Fatalf("application errors: %v", r.Errors)
		}
		avg := r.AvgCompletion(workload.MonteCarlo)
		if baseline == 0 {
			baseline = avg
		}
		fmt.Printf("%-44s avg completion %8v   speedup %.2fx\n",
			c.label, avg, float64(baseline)/float64(avg))
	}
}
