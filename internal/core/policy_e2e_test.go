package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestWeightedTFSDeliversProportionalService(t *testing.T) {
	// Tenant 1 (weight 3) and tenant 2 (weight 1) stream the same
	// saturating class at one GPU. Weight enforcement is bounded by the
	// granularity of in-flight asynchronous work (the Dispatcher gates
	// submission, not execution), so the delivered ratio approaches — but
	// does not exactly reach — the 3:1 target; the equal-weight control
	// run pins the attribution on the weights.
	oneGPU := []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}
	ratio := func(w1 int) float64 {
		cfg := Config{Seed: 4, Nodes: oneGPU, Mode: ModeStrings, Balance: "GRR", DevPolicy: "TFS"}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams := []workload.StreamSpec{
			{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 1, Weight: w1},
			{Kind: workload.MonteCarlo, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
		}
		r, err := c.RunUntil(streams, 40*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := r.TenantService[1], r.TenantService[2]
		if s1 == 0 || s2 == 0 {
			t.Fatalf("tenants starved: %v, %v", s1, s2)
		}
		return float64(s1) / float64(s2)
	}
	weighted := ratio(3)
	equal := ratio(1)
	if weighted < 1.8 || weighted > 4.0 {
		t.Fatalf("weighted service ratio %.2f, want ≈3 (weights 3:1)", weighted)
	}
	if equal < 0.8 || equal > 1.25 {
		t.Fatalf("equal-weight control ratio %.2f, want ≈1", equal)
	}
	if weighted < equal+0.5 {
		t.Fatalf("weights had no effect: %.2f vs control %.2f", weighted, equal)
	}
}

func TestLASFavorsShortEpisodes(t *testing.T) {
	// A long-kernel class (DC) and a short-episode class (GA) share one
	// GPU under heavy load: LAS should cut GA's completion relative to the
	// ungated runtime without destroying DC.
	oneGPU := []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}
	streams := []workload.StreamSpec{
		{Kind: workload.DXTC, Count: 5, LambdaFactor: 0.4, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: 10, LambdaFactor: 0.4, Node: 0, Tenant: 2, Weight: 1},
	}
	avg := func(devPol string) (sim.Time, sim.Time) {
		cfg := Config{Seed: 8, Nodes: oneGPU, Mode: ModeStrings, Balance: "GRR", DevPolicy: devPol}
		r := mustRun(t, cfg, streams)
		return r.AvgCompletion(workload.Gaussian), r.AvgCompletion(workload.DXTC)
	}
	gaNone, dcNone := avg("none")
	gaLAS, dcLAS := avg("LAS")
	if gaLAS > gaNone {
		t.Fatalf("LAS worsened the short class: %v > %v", gaLAS, gaNone)
	}
	if float64(dcLAS) > 1.5*float64(dcNone) {
		t.Fatalf("LAS crushed the long class: %v vs %v", dcLAS, dcNone)
	}
}

func TestPipelinedStreamsUnderStrings(t *testing.T) {
	cfg := Config{Seed: 5, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.5,
		Node: 0, Tenant: 1, Weight: 1, Style: workload.StylePipelined,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("pipelined apps failed under Strings: %v", r.Errors)
	}
	if r.Finished != 4 {
		t.Fatalf("finished %d of 4", r.Finished)
	}
}

func TestGMinKeepsTransferHeavyStreamsLocal(t *testing.T) {
	// MC requests arrive at node 0 of a supernode: GMin's local tie-break
	// should put more of its heavy traffic on node 0's devices than node
	// 1's.
	cfg := Config{Seed: 6, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 6, LambdaFactor: 0.8,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	local := c.Devices()[0].Stats().CopiesDone + c.Devices()[1].Stats().CopiesDone
	remote := c.Devices()[2].Stats().CopiesDone + c.Devices()[3].Stats().CopiesDone
	if local <= remote {
		t.Fatalf("local copies %d not above remote %d under GMin", local, remote)
	}
}

func TestPercentileCompletion(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}
	r := mustRun(t, cfg, gaStream(6))
	p50 := r.PercentileCompletion(workload.Gaussian, 0.5)
	p95 := r.PercentileCompletion(workload.Gaussian, 0.95)
	if p50 <= 0 || p95 < p50 {
		t.Fatalf("percentiles p50=%v p95=%v", p50, p95)
	}
	if r.PercentileCompletion(workload.DXTC, 0.5) != 0 {
		t.Fatal("percentile of absent class should be 0")
	}
}

func TestCrossModeDeterminismMatrix(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.5, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: 4, LambdaFactor: 0.5, Node: 0, Tenant: 2, Weight: 1},
	}
	type combo struct {
		mode Mode
		bal  string
		dev  string
	}
	combos := []combo{
		{ModeCUDA, "", ""},
		{ModeRain, "GMin", "TFS"},
		{ModeRain, "GWtMin", "LAS"},
		{ModeStrings, "GRR", "PS"},
		{ModeStrings, "MBF", "LAS"},
		{ModeStrings, "DTF", "TFS"},
	}
	for _, cb := range combos {
		cb := cb
		run := func() sim.Time {
			cfg := Config{Seed: 17, Nodes: twoGPUNode(), Mode: cb.mode,
				Balance: cb.bal, DevPolicy: cb.dev}
			r := mustRun(t, cfg, streams)
			return r.AvgCompletion(workload.MonteCarlo) + r.AvgCompletion(workload.Gaussian)
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%v/%s/%s diverged: %v vs %v", cb.mode, cb.bal, cb.dev, a, b)
		}
	}
}

func TestMultiThreadedAppsAcrossModes(t *testing.T) {
	streams := []workload.StreamSpec{{
		Kind: workload.SortingNetworks, Count: 3, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1, Style: workload.StyleMultiThread,
	}}
	for _, mode := range []Mode{ModeCUDA, ModeRain, ModeStrings} {
		cfg := Config{Seed: 9, Nodes: twoGPUNode(), Mode: mode, Balance: "GMin"}
		r := mustRun(t, cfg, streams)
		if got := len(r.Completions(workload.SortingNetworks)); got != 3 {
			t.Fatalf("%v: completions = %d", mode, got)
		}
	}
}

func TestMultiThreadedLeavesNoMemory(t *testing.T) {
	cfg := Config{Seed: 9, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 2, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1, Style: workload.StyleMultiThread,
	}})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	for _, d := range c.Devices() {
		if d.MemUsed() != 0 {
			t.Fatalf("device %d leaked %d bytes", d.ID(), d.MemUsed())
		}
	}
}

func TestRequestLogRoundTrip(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GRR"}
	r := mustRun(t, cfg, gaStream(5))
	if len(r.Requests) != 5 {
		t.Fatalf("request events = %d", len(r.Requests))
	}
	sorted := r.SortedRequests()
	var prev int64 = -1
	gids := map[int]bool{}
	for _, ev := range sorted {
		if ev.SubmittedUS < prev {
			t.Fatal("not sorted by submission")
		}
		prev = ev.SubmittedUS
		if ev.FinishedUS < ev.StartedUS || ev.StartedUS < ev.SubmittedUS {
			t.Fatalf("time order broken: %+v", ev)
		}
		if ev.QueueUS+ev.ServiceUS != ev.FinishedUS-ev.SubmittedUS {
			t.Fatalf("latency breakdown inconsistent: %+v", ev)
		}
		if ev.KindID != "GA" || ev.Err != "" {
			t.Fatalf("event fields: %+v", ev)
		}
		gids[ev.GID] = true
	}
	if !gids[0] || !gids[1] {
		t.Fatalf("GRR should have touched both GIDs: %v", gids)
	}
	var buf strings.Builder
	if err := r.WriteRequestLog(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var first RequestEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 || first.KindID != "GA" || first.FinishedUS != sorted[0].FinishedUS {
		t.Fatalf("round trip = %d lines, first %+v, want %+v", len(lines), first, sorted[0])
	}
}

// timeLaunch times a launch of kern between two events on ip, its SetDevice
// first with bind, from a daemon on k, and returns the elapsed time and the
// first error. The backend hands out events 1 and 2: were they others, the
// synchronize would fail.
func timeLaunch(k *sim.Kernel, ip *interpose.Interposer, bind bool, kern cuda.Kernel) (elapsed sim.Time, evErr error) {
	ops := []cuda.Op{{ID: cuda.CallEventCreate}, {ID: cuda.CallEventCreate},
		{ID: cuda.CallEventRecord, Event: 1}, {ID: cuda.CallLaunch, Kernel: kern}, {ID: cuda.CallEventRecord, Event: 2},
		{ID: cuda.CallEventSync, Event: 2}, {ID: cuda.CallEventElapsed, Event: 1, Event2: 2}, {ID: cuda.CallThreadExit}}
	if bind {
		ops = append([]cuda.Op{{ID: cuda.CallSetDevice}}, ops...)
	}
	i, busy := 0, false
	k.GoDaemon("event-app", func(d *sim.Daemon) {
		for ; i < len(ops) && evErr == nil; i++ {
			if !busy {
				busy = true
				ip.Issue(&ops[i])
			}
			if !ip.Await(d) {
				return
			}
			busy = false
			var r cuda.Ret
			r, evErr = ip.Result()
			elapsed = max(elapsed, r.Elapsed)
		}
		d.Exit()
	})
	k.Run()
	return elapsed, evErr
}

func TestEventsThroughFullStringsStack(t *testing.T) {
	// Drive CUDA events end to end: interposer → wire → backend thread →
	// Context Packer (AST retargets the default-stream records onto the
	// app's dedicated stream) → device markers.
	cfg := Config{Seed: 3, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GRR"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ip interpose.Interposer
	ip.Init(c.nodes[0], c.K, 991, 1, 1, "EVT", 0, true)
	elapsed, evErr := timeLaunch(c.K, &ip, true, cuda.Kernel{Name: "timed", Compute: 103e6})
	if evErr != nil {
		t.Fatalf("event flow failed: %v", evErr)
	}
	// 103e6 compute units on the Quadro 2000 (480e3 units/us) ≈ 215us;
	// the device-side measurement includes launch latency only.
	if elapsed < 200 || elapsed > 260 {
		t.Fatalf("measured kernel time %v, want ≈215us", elapsed)
	}
}

func TestEventsUnderRainMode(t *testing.T) {
	cfg := Config{Seed: 3, Nodes: twoGPUNode(), Mode: ModeRain, Balance: "GRR"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ip interpose.Interposer
	ip.Init(c.nodes[0], c.K, 993, 1, 1, "EVT", 0, false)
	elapsed, evErr := timeLaunch(c.K, &ip, false, cuda.Kernel{Compute: 48e6}) // 100us on Quadro2000
	if evErr != nil {
		t.Fatalf("Rain event flow failed: %v", evErr)
	}
	if elapsed < 90 || elapsed > 130 {
		t.Fatalf("measured %v, want ≈100us", elapsed)
	}
}
