package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TableI reproduces Table I: each benchmark run alone on the reference
// device under the bare runtime, reporting its measured GPU-time share,
// data-transfer share of GPU time, and kernel memory bandwidth (MB/s).
func (s *Suite) TableI() *metrics.Table {
	labels := make([]string, len(s.opt.Apps))
	gpuPct := make([]float64, len(s.opt.Apps))
	xferPct := make([]float64, len(s.opt.Apps))
	memBW := make([]float64, len(s.opt.Apps))
	runtime := make([]float64, len(s.opt.Apps))
	for i, k := range s.opt.Apps {
		labels[i] = k.String()
		cfg := core.Config{Seed: s.opt.Seed, Nodes: oneGPU(), Mode: core.ModeCUDA}
		c, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		r, err := c.Run([]workload.StreamSpec{{
			Kind: k, Count: 1, Lambda: 1, Node: 0, Tenant: 1, Weight: 1,
		}})
		c.Close()
		if err != nil || len(r.Errors) > 0 {
			panic(fmt.Sprintf("experiments: TableI %v: %v %v", k, err, r.Errors))
		}
		dev := c.Devices()[0]
		total := float64(r.AvgCompletion(k))
		gputime := float64(dev.AppService(1))
		xfer := float64(dev.AppTransferTime(1))
		runtime[i] = total / 1e6
		if total > 0 {
			gpuPct[i] = 100 * gputime / total
		}
		if gputime > 0 {
			xferPct[i] = 100 * xfer / gputime
			memBW[i] = dev.AppMemTraffic(1) / gputime // B/us == MB/s
		}
	}
	tab := &metrics.Table{
		Title:  "Table I: measured benchmark characteristics (solo, Tesla C2050)",
		Labels: labels,
	}
	tab.Add("Runtime(s)", runtime)
	tab.Add("GPU Time %", gpuPct)
	tab.Add("Transfer %", xferPct)
	tab.Add("MemBW MB/s", memBW)
	return tab
}

// Fig1 reproduces Figure 1's characterization: the mean compute and memory
// utilization each application class drives on its GPU while serving an
// exponential request stream.
func (s *Suite) Fig1() *metrics.Table {
	labels := make([]string, len(s.opt.Apps))
	compute := make([]float64, len(s.opt.Apps))
	mem := make([]float64, len(s.opt.Apps))
	for i, k := range s.opt.Apps {
		labels[i] = k.String()
		cfg := core.Config{Seed: s.opt.Seed, Nodes: oneGPU(), Mode: core.ModeCUDA, Trace: true}
		c, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		n := 4
		r, err := c.Run([]workload.StreamSpec{{
			Kind: k, Count: n, LambdaFactor: s.opt.LambdaFactor,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		c.Close()
		if err != nil || len(r.Errors) > 0 {
			panic(fmt.Sprintf("experiments: Fig1 %v: %v %v", k, err, r.Errors))
		}
		cu, bu := c.Trace(0).MeanUtil(r.EndTime)
		compute[i] = 100 * cu
		mem[i] = 100 * bu
	}
	tab := &metrics.Table{
		Title:  "Fig 1: compute and memory utilization of cloud applications (%)",
		Labels: labels,
	}
	tab.Add("Compute %", compute)
	tab.Add("Memory %", mem)
	return tab
}

// Fig2Result carries Figure 2's utilization timelines: Monte Carlo request
// bursts executed sequentially (one GPU context per request, as separate
// processes) versus concurrently (one packed context, per-request streams).
type Fig2Result struct {
	Horizon sim.Time

	Seq  *gpu.UtilTrace
	Conc *gpu.UtilTrace

	SeqMeanUtil  float64
	ConcMeanUtil float64

	// Glitches counts the idle gaps between busy periods — the context
	// switching stalls visible in the paper's sequential timeline.
	SeqGlitches  int
	ConcGlitches int

	SeqMakespan  sim.Time
	ConcMakespan sim.Time
}

// Fig2 reproduces Figure 2: GPU utilization of Monte Carlo requests under
// sequential execution (separate contexts) vs concurrent execution over
// CUDA streams from one context.
func (s *Suite) Fig2() *Fig2Result {
	run := func(mode core.Mode) (*gpu.UtilTrace, sim.Time) {
		cfg := core.Config{
			Seed: s.opt.Seed, Nodes: oneGPU(), Mode: mode,
			Balance: "GRR", Trace: true,
		}
		c, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		n := s.opt.Requests
		if n > 6 {
			n = 6
		}
		r, err := c.Run([]workload.StreamSpec{{
			Kind: workload.MonteCarlo, Count: n, LambdaFactor: 0.3,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		if err != nil || len(r.Errors) > 0 {
			panic(fmt.Sprintf("experiments: Fig2: %v %v", err, r.Errors))
		}
		return c.Trace(0), r.EndTime
	}
	seq, seqEnd := run(core.ModeCUDA)
	conc, concEnd := run(core.ModeStrings)
	horizon := seqEnd
	if concEnd > horizon {
		horizon = concEnd
	}
	res := &Fig2Result{
		Horizon: horizon, Seq: seq, Conc: conc,
		SeqMakespan: seqEnd, ConcMakespan: concEnd,
		SeqGlitches: seq.BusyGlitchCount(), ConcGlitches: conc.BusyGlitchCount(),
	}
	res.SeqMeanUtil = seq.MeanBusy(seqEnd)
	res.ConcMeanUtil = conc.MeanBusy(concEnd)
	return res
}

// Format renders the two timelines as ASCII strips.
func (r *Fig2Result) Format(width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: Monte Carlo bursts, sequential vs concurrent execution\n")
	fmt.Fprintf(&b, "sequential  |%s| busy %.0f%%, %d glitches, makespan %v\n",
		r.Seq.RenderBusy(r.Horizon, width), 100*r.SeqMeanUtil, r.SeqGlitches, r.SeqMakespan)
	fmt.Fprintf(&b, "concurrent  |%s| busy %.0f%%, %d glitches, makespan %v\n",
		r.Conc.RenderBusy(r.Horizon, width), 100*r.ConcMeanUtil, r.ConcGlitches, r.ConcMakespan)
	return b.String()
}
