package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// ExampleNew runs a small burst of Gaussian-elimination requests through the
// Strings runtime on a two-GPU node.
func ExampleNew() {
	cluster, err := core.New(core.Config{
		Seed: 1,
		Nodes: []core.NodeConfig{
			{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
		},
		Mode:    core.ModeStrings,
		Balance: "GMin",
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	r, err := cluster.Run([]workload.StreamSpec{{
		Kind: workload.Gaussian, Count: 3, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d requests finished\n", r.Finished)
	// Output: 3 requests finished
}

func TestEndToEndPS(t *testing.T) {
	cfg := core.Config{
		Seed: 1,
		Nodes: []core.NodeConfig{
			{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
		},
		Mode:      core.ModeStrings,
		Balance:   "GMin",
		DevPolicy: "PS",
	}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.Gaussian, Count: 4, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	if r.Finished != 4 {
		t.Fatalf("finished = %d", r.Finished)
	}
}

func TestEndToEndSlicePlacement(t *testing.T) {
	dev := gpu.TeslaC2050.WithMIG()
	if !dev.Partitionable() {
		t.Fatal("WithMIG spec must be partitionable")
	}
	if len(gpu.MIGProfiles(8<<30)) != 5 {
		t.Fatal("MIGProfiles table size")
	}
	cfg := core.Config{
		Seed:    1,
		Nodes:   []core.NodeConfig{{Devices: []gpu.Spec{dev, dev}}},
		Mode:    core.ModeStrings,
		Balance: "Frag",
	}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Run([]workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 3, LambdaFactor: 0.6,
			Node: 0, Tenant: 1, Weight: 1, SliceProfile: "3g"},
		{Kind: workload.Gaussian, Count: 3, LambdaFactor: 0.6,
			Node: 0, Tenant: 2, Weight: 1, SliceProfile: "7g"},
	})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	if r.SliceCarves != 2 || r.SliceReleases != 2 {
		t.Fatalf("carves/releases = %d/%d", r.SliceCarves, r.SliceReleases)
	}
	if r.StrandedRatio() < 0 || r.StrandedRatio() > 1 {
		t.Fatalf("StrandedRatio = %v", r.StrandedRatio())
	}
}
