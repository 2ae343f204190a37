package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// balCombo is one mode × balancing-policy system of Figures 9, 10 and 14.
type balCombo struct {
	name string
	mode core.Mode
	bal  string
}

// fig9Base runs (or recalls) Figure 9's bare-CUDA baseline for one
// application class. Grid cells call it on demand; the singleflight cache
// makes concurrent first calls collapse into a single simulation.
func (s *Suite) fig9Base(k workload.Kind) *core.RunResult {
	return s.run(scenario{
		key:     "fig9/cuda/" + k.String(),
		cfg:     core.Config{Nodes: singleNode(), Mode: core.ModeCUDA},
		streams: []workload.StreamSpec{s.stream(k, s.opt.Requests, 0, 1)},
	})
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
	defer s.arena.Close()
	labels := make([]string, len(s.opt.Apps))
	for i, k := range s.opt.Apps {
		labels[i] = k.String()
	}
	tab := &metrics.Table{
		Title:  "Fig 9: workload balancing vs CUDA runtime (relative speedup, 1 node x 2 GPUs)",
		Labels: labels,
	}
	combos := []balCombo{
		{"GRR-Rain", core.ModeRain, "GRR"},
		{"GMin-Rain", core.ModeRain, "GMin"},
		{"GWtMin-Rain", core.ModeRain, "GWtMin"},
		{"GRR-Strings", core.ModeStrings, "GRR"},
		{"GMin-Strings", core.ModeStrings, "GMin"},
		{"GWtMin-Strings", core.ModeStrings, "GWtMin"},
	}
	// Figure 9 streams a single application class per run; every class gets
	// the full stream length (queue dynamics are the point of the figure).
	rows := s.grid(len(combos), len(s.opt.Apps),
		func(r, c int) float64 {
			cb, k := combos[r], s.opt.Apps[c]
			base := s.fig9Base(k).AvgCompletion(k)
			run := s.run(scenario{
				key:     fmt.Sprintf("fig9/%s/%s", cb.name, k),
				cfg:     core.Config{Nodes: singleNode(), Mode: cb.mode, Balance: cb.bal},
				streams: []workload.StreamSpec{s.stream(k, s.opt.Requests, 0, 1)},
			})
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

// Fig10 reproduces Figure 10: GPU sharing on the emulated 4-GPU supernode
// over the 24 workload pairs, weighted speedup vs the single-node GRR
// baseline. Paper averages: Rain 1.60/1.80/1.82×, Strings 2.64/2.69/2.88×.
func (s *Suite) Fig10() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Fig 10: GPU sharing on the 4-GPU supernode (weighted speedup vs 1-node GRR)",
		Labels: s.pairLabels(),
	}
	combos := []balCombo{
		{"GRR-Rain", core.ModeRain, "GRR"},
		{"GMin-Rain", core.ModeRain, "GMin"},
		{"GWtMin-Rain", core.ModeRain, "GWtMin"},
		{"GRR-Strings", core.ModeStrings, "GRR"},
		{"GMin-Strings", core.ModeStrings, "GMin"},
		{"GWtMin-Strings", core.ModeStrings, "GWtMin"},
	}
	rows := s.grid(len(combos), len(s.opt.Pairs),
		func(r, c int) float64 {
			cb, p := combos[r], s.opt.Pairs[c]
			run := s.run(scenario{
				key:     fmt.Sprintf("fig10/%s/%s", cb.name, p.Label),
				cfg:     core.Config{Nodes: supernode(), Mode: cb.mode, Balance: cb.bal},
				streams: s.pairStreams(p, true),
			})
			return weightedSpeedup(p, s.pairBaseline1N(p), run)
		})
	for ri, cb := range combos {
		tab.Add(cb.name, rows[ri])
	}
	return tab.WithAverage()
}

// Fig11 reproduces Figure 11: Jain fairness of equal-share pairs on one
// shared GPU under the bare CUDA runtime, TFS-Rain and TFS-Strings.
// Fairness is the Jain index over per-tenant service rates in a fixed
// contention window, each normalized by the tenant's solo rate. Paper
// averages: ~80.5% CUDA, ~84.9% TFS-Rain, 91% TFS-Strings.
func (s *Suite) Fig11() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Fig 11: fairness of equal-share tenants on one GPU (Jain index)",
		Labels: s.pairLabels(),
	}
	type system struct {
		name string
		mode core.Mode
		dev  string
	}
	systems := []system{
		{"CUDA", core.ModeCUDA, ""},
		{"TFS-Rain", core.ModeRain, "TFS"},
		{"TFS-Strings", core.ModeStrings, "TFS"},
	}
	// Saturating streams: both tenants stay backlogged through the window.
	longStream := func(k workload.Kind, tenant int64) workload.StreamSpec {
		return workload.StreamSpec{Kind: k, Count: 8, Lambda: sim.Second, Node: 0, Tenant: tenant, Weight: 1}
	}
	shortStream := func(k workload.Kind, tenant int64) workload.StreamSpec {
		return workload.StreamSpec{Kind: k, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: tenant, Weight: 1}
	}
	// Each cell needs its system's two solo runs and the shared run; the
	// solo scenarios recur across pairs sharing an application class, and
	// the cache collapses those to one simulation each.
	rows := s.grid(len(systems), len(s.opt.Pairs),
		func(r, c int) float64 {
			sys, p := systems[r], s.opt.Pairs[c]
			cfg := core.Config{Nodes: oneGPU(), Mode: sys.mode, Balance: "GRR", DevPolicy: sys.dev}
			soloA := s.run(scenario{
				key:     fmt.Sprintf("fig11/%s/solo/%s", sys.name, p.Long),
				cfg:     cfg,
				streams: []workload.StreamSpec{longStream(p.Long, 1)},
				horizon: s.opt.FairHorizon,
			}).TenantService[1]
			soloB := s.run(scenario{
				key:     fmt.Sprintf("fig11/%s/solo/%s", sys.name, p.Short),
				cfg:     cfg,
				streams: []workload.StreamSpec{shortStream(p.Short, 2)},
				horizon: s.opt.FairHorizon,
			}).TenantService[2]
			shared := s.run(scenario{
				key:     fmt.Sprintf("fig11/%s/pair/%s", sys.name, p.Label),
				cfg:     cfg,
				streams: []workload.StreamSpec{longStream(p.Long, 1), shortStream(p.Short, 2)},
				horizon: s.opt.FairHorizon,
			}).TenantService
			xa, xb := 0.0, 0.0
			if soloA > 0 {
				xa = float64(shared[1]) / float64(soloA)
			}
			if soloB > 0 {
				xb = float64(shared[2]) / float64(soloB)
			}
			return metrics.JainFairness([]float64{xa, xb})
		})
	for ri, sys := range systems {
		tab.Add(sys.name, rows[ri])
	}
	return tab.WithAverage()
}

// fig12Combos are the throughput-oriented device-scheduling systems of
// Figures 12 and 13.
type devCombo struct {
	name string
	mode core.Mode
	dev  string
}

func fig12Combos() []devCombo {
	return []devCombo{
		{"GWtMinLAS-Rain", core.ModeRain, "LAS"},
		{"GWtMinLAS-Strings", core.ModeStrings, "LAS"},
		{"GWtMinPS-Strings", core.ModeStrings, "PS"},
	}
}

// fig12Run executes one pair under a Figure 12 combo (memoized; Figure 13
// reuses the same runs against its own baseline).
func (s *Suite) fig12Run(cb devCombo, p workload.Pair) *core.RunResult {
	return s.run(scenario{
		key: fmt.Sprintf("fig12/%s/%s", cb.name, p.Label),
		cfg: core.Config{Nodes: supernode(), Mode: cb.mode,
			Balance: "GWtMin", DevPolicy: cb.dev},
		streams: s.pairStreams(p, true),
	})
}

// Fig12 reproduces Figure 12: GPU scheduling (LAS, PS) combined with
// GWtMin balancing on the supernode, weighted speedup vs the single-node
// GRR baseline. Paper averages: 2.18× (LAS-Rain), 3.10× (LAS-Strings),
// 2.97× (PS-Strings).
func (s *Suite) Fig12() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Fig 12: GPU scheduling + sharing (weighted speedup vs 1-node GRR)",
		Labels: s.pairLabels(),
	}
	combos := fig12Combos()
	rows := s.grid(len(combos), len(s.opt.Pairs),
		func(r, c int) float64 {
			p := s.opt.Pairs[c]
			return weightedSpeedup(p, s.pairBaseline1N(p), s.fig12Run(combos[r], p))
		})
	for ri, cb := range combos {
		tab.Add(cb.name, rows[ri])
	}
	return tab.WithAverage()
}

// Fig13 reproduces Figure 13: the same scheduling policies measured against
// the 4-GPU shared GRR baseline, isolating the device-scheduling benefit.
// Paper averages: 1.40× (LAS-Rain), 1.95× (LAS-Strings), 1.90× (PS-Strings).
func (s *Suite) Fig13() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Fig 13: GPU scheduling alone (weighted speedup vs 4-GPU shared GRR)",
		Labels: s.pairLabels(),
	}
	combos := fig12Combos()
	names := []string{"LAS-Rain", "LAS-Strings", "PS-Strings"}
	rows := s.grid(len(combos), len(s.opt.Pairs),
		func(r, c int) float64 {
			p := s.opt.Pairs[c]
			return weightedSpeedup(p, s.pairBaseline4G(p), s.fig12Run(combos[r], p))
		})
	for ri, name := range names {
		tab.Add(name, rows[ri])
	}
	return tab.WithAverage()
}

// Fig14 reproduces Figure 14: feedback-based load balancing (RTF, GUF) on
// the supernode vs the single-node GRR baseline. Paper averages: RTF-Rain
// 2.22×, GUF-Rain 2.51×, RTF-Strings 3.23×, GUF-Strings 3.96×.
func (s *Suite) Fig14() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Fig 14: feedback-based load balancing (weighted speedup vs 1-node GRR)",
		Labels: s.pairLabels(),
	}
	combos := []balCombo{
		{"RTF-Rain", core.ModeRain, "RTF"},
		{"GUF-Rain", core.ModeRain, "GUF"},
		{"RTF-Strings", core.ModeStrings, "RTF"},
		{"GUF-Strings", core.ModeStrings, "GUF"},
	}
	rows := s.grid(len(combos), len(s.opt.Pairs),
		func(r, c int) float64 {
			cb, p := combos[r], s.opt.Pairs[c]
			run := s.run(scenario{
				key:     fmt.Sprintf("fig14/%s/%s", cb.name, p.Label),
				cfg:     core.Config{Nodes: supernode(), Mode: cb.mode, Balance: cb.bal},
				streams: s.pairStreams(p, true),
			})
			return weightedSpeedup(p, s.pairBaseline1N(p), run)
		})
	for ri, cb := range combos {
		tab.Add(cb.name, rows[ri])
	}
	return tab.WithAverage()
}

// Fig15 reproduces Figure 15: the Strings-specific feedback policies DTF
// and MBF, which exploit CUDA streams and context packing. Paper averages:
// 3.73× (DTF), 4.02× (MBF) vs the single-node GRR baseline — 8.70× vs the
// bare CUDA runtime.
func (s *Suite) Fig15() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Fig 15: Strings-specific feedback policies (weighted speedup vs 1-node GRR)",
		Labels: s.pairLabels(),
	}
	bals := []string{"DTF", "MBF"}
	rows := s.grid(len(bals), len(s.opt.Pairs),
		func(r, c int) float64 {
			bal, p := bals[r], s.opt.Pairs[c]
			run := s.run(scenario{
				key:     fmt.Sprintf("fig15/%s/%s", bal, p.Label),
				cfg:     core.Config{Nodes: supernode(), Mode: core.ModeStrings, Balance: bal},
				streams: s.pairStreams(p, true),
			})
			return weightedSpeedup(p, s.pairBaseline1N(p), run)
		})
	for ri, bal := range bals {
		tab.Add(bal+"-Strings", rows[ri])
	}
	return tab.WithAverage()
}
