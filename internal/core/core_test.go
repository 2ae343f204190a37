package core

import (
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// twoGPUNode is the paper's small-scale server: one node with a Quadro 2000
// and a Tesla C2050.
func twoGPUNode() []NodeConfig {
	return []NodeConfig{{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}}
}

// supernode is the emulated 4-GPU server: two dual-GPU nodes.
func supernode() []NodeConfig {
	return []NodeConfig{
		{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
		{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}},
	}
}

func mustRun(t *testing.T, cfg Config, streams []workload.StreamSpec) *RunResult {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	r, err := c.Run(streams)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("application errors: %v", r.Errors)
	}
	if r.Finished != r.Launched {
		t.Fatalf("finished %d of %d", r.Finished, r.Launched)
	}
	return r
}

func gaStream(n int) []workload.StreamSpec {
	return []workload.StreamSpec{{
		Kind: workload.Gaussian, Count: n, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1,
	}}
}

func TestCUDAModeCompletesRequests(t *testing.T) {
	r := mustRun(t, Config{Seed: 1, Nodes: twoGPUNode(), Mode: ModeCUDA}, gaStream(5))
	if got := len(r.Completions(workload.Gaussian)); got != 5 {
		t.Fatalf("completions = %d, want 5", got)
	}
	if r.AvgCompletion(workload.Gaussian) <= 0 {
		t.Fatal("nonpositive completion time")
	}
}

func TestRainModeCompletesRequests(t *testing.T) {
	r := mustRun(t, Config{Seed: 1, Nodes: twoGPUNode(), Mode: ModeRain, Balance: "GRR"}, gaStream(5))
	if got := len(r.Completions(workload.Gaussian)); got != 5 {
		t.Fatalf("completions = %d, want 5", got)
	}
}

func TestStringsModeCompletesRequests(t *testing.T) {
	r := mustRun(t, Config{Seed: 1, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}, gaStream(5))
	if got := len(r.Completions(workload.Gaussian)); got != 5 {
		t.Fatalf("completions = %d, want 5", got)
	}
}

// The headline qualitative result: for a bursty single-class stream on a
// 2-GPU node, Strings beats Rain beats bare CUDA on average completion.
func TestModeOrderingOnCollidingStream(t *testing.T) {
	stream := []workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 8, LambdaFactor: 0.5,
		Node: 0, Tenant: 1, Weight: 1,
	}}
	avg := func(mode Mode, bal string) sim.Time {
		cfg := Config{Seed: 3, Nodes: twoGPUNode(), Mode: mode, Balance: bal}
		r := mustRun(t, cfg, stream)
		return r.AvgCompletion(workload.MonteCarlo)
	}
	cudaT := avg(ModeCUDA, "")
	rainT := avg(ModeRain, "GMin")
	strT := avg(ModeStrings, "GMin")
	if !(strT < rainT && rainT < cudaT) {
		t.Fatalf("ordering violated: Strings=%v Rain=%v CUDA=%v", strT, rainT, cudaT)
	}
	// And the gains should be material, not noise.
	if float64(cudaT)/float64(strT) < 1.3 {
		t.Fatalf("Strings speedup over CUDA only %.2fx", float64(cudaT)/float64(strT))
	}
}

func TestStringsAvoidsContextSwitches(t *testing.T) {
	stream := []workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.4,
		Node: 0, Tenant: 1, Weight: 1,
	}}
	cfg := Config{Seed: 5, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(stream)
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	for _, d := range c.Devices() {
		if sw := d.Stats().Switches; sw != 0 {
			t.Fatalf("device %d performed %d context switches under Strings", d.ID(), sw)
		}
	}

	// Rain, by contrast, must context switch when requests collide.
	cfg.Mode = ModeRain
	c2, _ := New(cfg)
	if _, err := c2.Run(stream); err != nil {
		t.Fatal(err)
	}
	var total int
	for _, d := range c2.Devices() {
		total += d.Stats().Switches
	}
	if total == 0 {
		t.Fatal("Rain performed no context switches at all")
	}
}

func TestBalancingSpreadsLoadAcrossGPUs(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GRR"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(gaStream(6))
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	for _, d := range c.Devices() {
		if d.Stats().KernelsDone == 0 {
			t.Fatalf("device %d never ran a kernel under GRR", d.ID())
		}
	}
}

func TestCUDAModeCollidesOnDeviceZero(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeCUDA}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(gaStream(6)); err != nil {
		t.Fatal(err)
	}
	if c.Devices()[1].Stats().KernelsDone != 0 {
		t.Fatal("static provisioning used the second GPU")
	}
	if c.Devices()[0].Stats().KernelsDone == 0 {
		t.Fatal("no kernels ran at all")
	}
}

func TestFeedbackReachesSFT(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "MBF"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(gaStream(4))
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	if n := c.Mapper().SFT().Samples("GA"); n != 4 {
		t.Fatalf("SFT samples = %d, want 4", n)
	}
	e, _ := c.Mapper().SFT().Lookup("GA")
	if e.ExecTime <= 0 || e.GPUUtil <= 0 || e.GPUUtil > 0.2 {
		t.Fatalf("GA feedback implausible: %+v", e)
	}
	// All bindings released after exits.
	for _, row := range c.Mapper().DST().Entries() {
		if row.Load != 0 {
			t.Fatalf("GID %d load = %d after drain", row.GID, row.Load)
		}
	}
}

func TestSupernodeUsesRemoteGPUs(t *testing.T) {
	// All requests arrive at node 0; GRR must round-robin them across all
	// four GPUs, including node 1's (remote) pair.
	cfg := Config{Seed: 2, Nodes: supernode(), Mode: ModeStrings, Balance: "GRR"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(gaStream(8))
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	for gid, d := range c.Devices() {
		if d.Stats().KernelsDone == 0 {
			t.Fatalf("GID %d idle under supernode GRR", gid)
		}
	}
}

func TestRemoteAccessCostsMore(t *testing.T) {
	// One request forced to a remote GPU (arrivals at node 1, pool of
	// node-0 devices only) vs the same request locally.
	run := func(fromNode int) sim.Time {
		cfg := Config{Seed: 4, Mode: ModeStrings, Balance: "GRR",
			Nodes: []NodeConfig{
				{Devices: []gpu.Spec{gpu.TeslaC2050}},
				{Devices: []gpu.Spec{gpu.Quadro2000}}, // unused filler
			}}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Balance GRR starts at GID 0 (node 0's C2050) for the single
		// request regardless of origin.
		r, err := c.Run([]workload.StreamSpec{{
			Kind: workload.SortingNetworks, Count: 1, Lambda: 1,
			Node: fromNode, Tenant: 1, Weight: 1,
		}})
		if err != nil || len(r.Errors) > 0 {
			t.Fatalf("run: %v %v", err, r.Errors)
		}
		return r.AvgCompletion(workload.SortingNetworks)
	}
	local, remote := run(0), run(1)
	if remote <= local {
		t.Fatalf("remote %v not more expensive than local %v", remote, local)
	}
}

func TestTFSFairnessBeatsBareRuntime(t *testing.T) {
	// Two equal-share tenants contending for one GPU: DC's long kernels
	// against MC's short transfer-heavy episodes. Fairness is measured as
	// the Jain index over per-tenant service rates in a fixed contention
	// window, normalized by each tenant's solo rate (equal slowdowns ⇒ 1).
	oneGPU := []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}
	horizon := 40 * sim.Second
	longS := workload.StreamSpec{Kind: workload.DXTC, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1}
	shortS := workload.StreamSpec{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1}
	svc := func(mode Mode, devPol string, streams []workload.StreamSpec) map[int64]sim.Time {
		cfg := Config{Seed: 6, Nodes: oneGPU, Mode: mode, Balance: "GRR", DevPolicy: devPol}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.RunUntil(streams, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return r.TenantService
	}
	fairness := func(mode Mode, devPol string) float64 {
		soloA := svc(mode, devPol, []workload.StreamSpec{longS})[1]
		soloB := svc(mode, devPol, []workload.StreamSpec{shortS})[2]
		shared := svc(mode, devPol, []workload.StreamSpec{longS, shortS})
		return metrics.JainFairness([]float64{
			float64(shared[1]) / float64(soloA),
			float64(shared[2]) / float64(soloB),
		})
	}
	cudaF := fairness(ModeCUDA, "")
	tfsF := fairness(ModeStrings, "TFS")
	if tfsF < cudaF+0.1 {
		t.Fatalf("TFS fairness %.3f not clearly above bare runtime %.3f", tfsF, cudaF)
	}
	if tfsF < 0.9 {
		t.Fatalf("TFS fairness %.3f too low", tfsF)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		cfg := Config{Seed: 11, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin", DevPolicy: "PS"}
		r := mustRun(t, cfg, gaStream(5))
		return r.AvgCompletion(workload.Gaussian)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical configs diverged: %v vs %v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Nodes: []NodeConfig{{}}}); err == nil {
		t.Fatal("node without devices accepted")
	}
	if _, err := New(Config{Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "nope"}); err == nil {
		t.Fatal("bogus balance policy accepted")
	}
	if _, err := New(Config{Nodes: twoGPUNode(), Mode: ModeStrings, DevPolicy: "nope"}); err == nil {
		t.Fatal("bogus device policy accepted")
	}
	if _, err := New(Config{Nodes: twoGPUNode(), Mode: ModeRain, DevPolicy: "PS"}); err == nil {
		t.Fatal("PS under Rain accepted")
	}
	c, err := New(Config{Nodes: twoGPUNode(), Mode: ModeStrings})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run([]workload.StreamSpec{{Kind: workload.Gaussian, Count: 1, Node: 9}}); err == nil {
		t.Fatal("stream at unknown node accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeCUDA.String() != "CUDA" || ModeRain.String() != "Rain" || ModeStrings.String() != "Strings" {
		t.Fatal("mode names wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Fatal("unknown mode formatting")
	}
}
