package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// balancingSystems are the six mode × static-balancing systems of Figures 9
// and 10.
func balancingSystems() []system {
	var out []system
	for _, mode := range []core.Mode{core.ModeRain, core.ModeStrings} {
		for _, bal := range []string{"GRR", "GMin", "GWtMin"} {
			out = append(out, system{name: bal + "-" + mode.String(), mode: mode, bal: bal})
		}
	}
	return out
}

// fig9Base runs (or recalls) Figure 9's bare-CUDA baseline for one
// application class. Grid cells call it on demand; the singleflight cache
// makes concurrent first calls collapse into a single simulation. Every
// application keeps its programmed device, so a long stream outgrows that
// GPU's memory: cudaMalloc waits for it (BlockOnOOM) rather than failing.
func (s *Suite) fig9Base(k workload.Kind) *core.RunResult {
	sc := s.on(system{mode: core.ModeCUDA}, singleNode, scenario.Stream{Kind: k, Count: s.opt.Requests})
	sc.BlockOnOOM = true
	return s.run(sc)
}

// Fig9 reproduces Figure 9: workload balancing on the single two-GPU node.
// For each application, a negative-exponential request stream is served by
// the bare CUDA runtime (the baseline) and by the three balancing policies
// under Rain and Strings; bars are relative speedup in average completion
// time. Paper averages: GRR/GMin/GWtMin-Rain 2.16/2.37/2.34×,
// GRR/GMin/GWtMin-Strings 3.10/4.90/4.73×.
//
// The whole figure — six systems × all applications, baselines included —
// is one flat cell grid: each cell pulls its class's CUDA baseline through
// the memoized cache, so there is no barrier between the baseline pass and
// the policy runs.
func (s *Suite) Fig9() *metrics.Table {
	labels := make([]string, len(s.opt.Apps))
	for i, k := range s.opt.Apps {
		labels[i] = k.String()
	}
	tab := &metrics.Table{
		Title:  "Fig 9: workload balancing vs CUDA runtime (relative speedup, 1 node x 2 GPUs)",
		Labels: labels,
	}
	combos := balancingSystems()
	// Figure 9 streams a single application class per run; every class gets
	// the full stream length (queue dynamics are the point of the figure).
	rows := s.grid(len(combos), len(s.opt.Apps),
		func(r, c int) float64 {
			cb, k := combos[r], s.opt.Apps[c]
			base := s.fig9Base(k).AvgCompletion(k)
			run := s.run(s.on(cb, singleNode, scenario.Stream{Kind: k, Count: s.opt.Requests}))
			if avg := run.AvgCompletion(k); avg > 0 {
				return float64(base) / float64(avg)
			}
			return 0
		})
	for ri, cb := range combos {
		tab.Add(cb.name, rows[ri])
	}
	return tab.WithAverage()
}

// pairFigure is Figures 10 and 12 to 15: every system serves every workload
// pair on the 4-GPU supernode (the long stream arriving at node 0, the short
// one at node 1) and a cell is the pair's weighted speedup over base's run
// of it, with the AVG column last.
func (s *Suite) pairFigure(title string, base func(workload.Pair) *core.RunResult, systems []system) *metrics.Table {
	tab := &metrics.Table{Title: title, Labels: s.pairLabels()}
	rows := s.grid(len(systems), len(s.opt.Pairs),
		func(r, c int) float64 {
			sys, p := systems[r], s.opt.Pairs[c]
			run := s.run(s.on(sys, supernode, s.pairStreams(p, true)...))
			return weightedSpeedup(p, base(p), run)
		})
	for ri, sys := range systems {
		tab.Add(sys.name, rows[ri])
	}
	return tab.WithAverage()
}

// Fig10 reproduces Figure 10: GPU sharing on the emulated 4-GPU supernode
// over the 24 workload pairs, weighted speedup vs the single-node GRR
// baseline. Paper averages: Rain 1.60/1.80/1.82×, Strings 2.64/2.69/2.88×.
func (s *Suite) Fig10() *metrics.Table {
	return s.pairFigure("Fig 10: GPU sharing on the 4-GPU supernode (weighted speedup vs 1-node GRR)",
		s.pairBaseline1N, balancingSystems())
}

// fairHorizon is the contention window of the fairness experiments.
const fairHorizon = 40 * sim.Second

// jainCell is the fairness measure of Figure 11: the pair's two tenants
// stream at one GPU under sc, saturating it through the fixed contention
// window, and the cell is the Jain index over their attained service, each
// normalized by what the tenant attains alone. A solo run is the same
// scenario for every pair with that stream, so those pairs share it.
func (s *Suite) jainCell(sc scenario.Scenario, p workload.Pair) float64 {
	sc.Fleet, sc.Horizon = oneGPU, fairHorizon
	long := scenario.Stream{Kind: p.Long, Count: 8, Every: sim.Second}
	short := scenario.Stream{Kind: p.Short, Count: 40, Every: sim.Second / 2}
	service := func(streams ...scenario.Stream) map[int64]sim.Time {
		sc.Streams = streams
		return s.run(sc).TenantService
	}
	soloA := service(long)[1]
	soloB := service(short)[1] // alone, the short stream is tenant 1
	shared := service(long, short)
	xa, xb := 0.0, 0.0
	if soloA > 0 {
		xa = float64(shared[1]) / float64(soloA)
	}
	if soloB > 0 {
		xb = float64(shared[2]) / float64(soloB)
	}
	return metrics.JainFairness([]float64{xa, xb})
}

// Fig11 reproduces Figure 11: Jain fairness of equal-share pairs on one
// shared GPU under the bare CUDA runtime, TFS-Rain and TFS-Strings. Paper
// averages: ~80.5% CUDA, ~84.9% TFS-Rain, 91% TFS-Strings.
func (s *Suite) Fig11() *metrics.Table {
	tab := &metrics.Table{
		Title:  "Fig 11: fairness of equal-share tenants on one GPU (Jain index)",
		Labels: s.pairLabels(),
	}
	systems := []system{
		{name: "CUDA", mode: core.ModeCUDA, bal: "GRR"},
		{name: "TFS-Rain", mode: core.ModeRain, bal: "GRR", dev: "TFS"},
		{name: "TFS-Strings", mode: core.ModeStrings, bal: "GRR", dev: "TFS"},
	}
	rows := s.grid(len(systems), len(s.opt.Pairs),
		func(r, c int) float64 { return s.jainCell(s.on(systems[r], oneGPU), s.opt.Pairs[c]) })
	for ri, sys := range systems {
		tab.Add(sys.name, rows[ri])
	}
	return tab.WithAverage()
}

// fig12Systems are the throughput-oriented device-scheduling systems of
// Figures 12 and 13, GWtMin balancing under each; names are the series names
// of the figure asking. The runs are the same scenarios in both figures, so
// Figure 13 re-reads Figure 12's against its own baseline.
func fig12Systems(names ...string) []system {
	return []system{
		{name: names[0], mode: core.ModeRain, bal: "GWtMin", dev: "LAS"},
		{name: names[1], mode: core.ModeStrings, bal: "GWtMin", dev: "LAS"},
		{name: names[2], mode: core.ModeStrings, bal: "GWtMin", dev: "PS"},
	}
}

// Fig12 reproduces Figure 12: GPU scheduling (LAS, PS) combined with
// GWtMin balancing on the supernode, weighted speedup vs the single-node
// GRR baseline. Paper averages: 2.18× (LAS-Rain), 3.10× (LAS-Strings),
// 2.97× (PS-Strings).
func (s *Suite) Fig12() *metrics.Table {
	return s.pairFigure("Fig 12: GPU scheduling + sharing (weighted speedup vs 1-node GRR)",
		s.pairBaseline1N, fig12Systems("GWtMinLAS-Rain", "GWtMinLAS-Strings", "GWtMinPS-Strings"))
}

// Fig13 reproduces Figure 13: the same scheduling policies measured against
// the 4-GPU shared GRR baseline, isolating the device-scheduling benefit.
// Paper averages: 1.40× (LAS-Rain), 1.95× (LAS-Strings), 1.90× (PS-Strings).
func (s *Suite) Fig13() *metrics.Table {
	return s.pairFigure("Fig 13: GPU scheduling alone (weighted speedup vs 4-GPU shared GRR)",
		s.pairBaseline4G, fig12Systems("LAS-Rain", "LAS-Strings", "PS-Strings"))
}

// Fig14 reproduces Figure 14: feedback-based load balancing (RTF, GUF) on
// the supernode vs the single-node GRR baseline. Paper averages: RTF-Rain
// 2.22×, GUF-Rain 2.51×, RTF-Strings 3.23×, GUF-Strings 3.96×.
func (s *Suite) Fig14() *metrics.Table {
	return s.pairFigure("Fig 14: feedback-based load balancing (weighted speedup vs 1-node GRR)",
		s.pairBaseline1N, []system{
			{name: "RTF-Rain", mode: core.ModeRain, bal: "RTF"},
			{name: "GUF-Rain", mode: core.ModeRain, bal: "GUF"},
			{name: "RTF-Strings", mode: core.ModeStrings, bal: "RTF"},
			{name: "GUF-Strings", mode: core.ModeStrings, bal: "GUF"},
		})
}

// Fig15 reproduces Figure 15: the Strings-specific feedback policies DTF
// and MBF, which exploit CUDA streams and context packing. Paper averages:
// 3.73× (DTF), 4.02× (MBF) vs the single-node GRR baseline — 8.70× vs the
// bare CUDA runtime.
func (s *Suite) Fig15() *metrics.Table {
	return s.pairFigure("Fig 15: Strings-specific feedback policies (weighted speedup vs 1-node GRR)",
		s.pairBaseline1N, []system{
			{name: "DTF-Strings", mode: core.ModeStrings, bal: "DTF"},
			{name: "MBF-Strings", mode: core.ModeStrings, bal: "MBF"},
		})
}
