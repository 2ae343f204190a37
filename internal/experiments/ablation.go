package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The ablations quantify the design choices DESIGN.md calls out: the cost of
// GPU context switching (what context packing removes), the copy-engine
// count (what PS exploits), the supernode interconnect (what GPU remoting
// pays), the LAS decay constant (eq. 1's k), and the Policy Arbiter's
// dynamic switching.

// ablationPair is the workload used by the ablations: a compute-heavy long
// job against a transfer-heavy short job, the mix that exercises every
// engine.
func ablationPair() workload.Pair {
	return workload.Pair{Label: "B", Long: workload.DXTC, Short: workload.MonteCarlo}
}

// AblationContextSwitch sweeps the driver's context-switch cost and
// reports the pair's mean completion time under Rain (per-app contexts)
// and Strings (packed context). Strings should be insensitive: packing
// removes the switches entirely.
func (s *Suite) AblationContextSwitch() *metrics.Table {
	defer s.arena.Close()
	costs := []sim.Time{0, 200 * sim.Microsecond, 700 * sim.Microsecond, 2 * sim.Millisecond}
	labels := make([]string, len(costs))
	rain := make([]float64, len(costs))
	strs := make([]float64, len(costs))
	p := ablationPair()
	for i, cost := range costs {
		labels[i] = cost.String()
		nodes := singleNode()
		for n := range nodes {
			for d := range nodes[n].Devices {
				nodes[n].Devices[d].ContextSwitch = cost
			}
		}
		for _, mode := range []core.Mode{core.ModeRain, core.ModeStrings} {
			r := s.run(scenario{
				key:     fmt.Sprintf("abl-ctx/%v/%s", cost, mode),
				cfg:     core.Config{Nodes: nodes, Mode: mode, Balance: "GMin"},
				streams: s.pairStreams(p, false),
			})
			mean := float64(r.AvgCompletion(p.Long)+r.AvgCompletion(p.Short)) / 2e6
			if mode == core.ModeRain {
				rain[i] = mean
			} else {
				strs[i] = mean
			}
		}
	}
	tab := &metrics.Table{
		Title:  "Ablation: context-switch cost vs mean completion (s), DC-MC pair on 1 node",
		Labels: labels,
	}
	tab.Add("Rain", rain)
	tab.Add("Strings", strs)
	return tab
}

// AblationCopyEngines compares one vs two copy engines under Strings+PS for
// the transfer-heavy pair: the second DMA engine is what lets H2D and D2H
// phases run concurrently.
func (s *Suite) AblationCopyEngines() *metrics.Table {
	defer s.arena.Close()
	p := ablationPair()
	labels := []string{"1 engine", "2 engines"}
	vals := make([]float64, 2)
	for i, engines := range []int{1, 2} {
		nodes := singleNode()
		for n := range nodes {
			for d := range nodes[n].Devices {
				nodes[n].Devices[d].CopyEngines = engines
			}
		}
		r := s.run(scenario{
			key: fmt.Sprintf("abl-ce/%d", engines),
			cfg: core.Config{Nodes: nodes, Mode: core.ModeStrings,
				Balance: "GMin", DevPolicy: "PS"},
			streams: s.pairStreams(p, false),
		})
		vals[i] = float64(r.AvgCompletion(p.Long)+r.AvgCompletion(p.Short)) / 2e6
	}
	tab := &metrics.Table{
		Title:  "Ablation: copy engines vs mean completion (s), Strings+PS, DC-MC pair",
		Labels: labels,
	}
	tab.Add("MeanCompl(s)", vals)
	return tab
}

// AblationRemoteBandwidth sweeps the supernode interconnect bandwidth and
// reports GRR-Strings' weighted speedup over the single-node baseline for
// the transfer-heavy pair — how fast remoting loses its value as the
// network thins (125 B/us is literal Gigabit Ethernet).
func (s *Suite) AblationRemoteBandwidth() *metrics.Table {
	defer s.arena.Close()
	bands := []float64{125, 500, 2000, 8000}
	labels := make([]string, len(bands))
	vals := make([]float64, len(bands))
	p := ablationPair()
	base := s.pairBaseline1N(p)
	for i, bw := range bands {
		labels[i] = fmt.Sprintf("%.0fMB/s", bw)
		r := s.run(scenario{
			key: fmt.Sprintf("abl-net/%.0f", bw),
			cfg: core.Config{Nodes: supernode(), Mode: core.ModeStrings, Balance: "GRR",
				RemoteLink: rpcproto.LinkSpec{Latency: 60 * sim.Microsecond, Bandwidth: bw}},
			streams: s.pairStreams(p, true),
		})
		vals[i] = weightedSpeedup(p, base, r)
	}
	tab := &metrics.Table{
		Title:  "Ablation: interconnect bandwidth vs GRR-Strings speedup (DC-MC pair)",
		Labels: labels,
	}
	tab.Add("WS vs 1N-GRR", vals)
	return tab
}

// AblationLASDecay sweeps eq. 1's decay constant k and reports LAS-Strings'
// weighted speedup for the ablation pair over the 4-GPU GRR baseline.
func (s *Suite) AblationLASDecay() *metrics.Table {
	defer s.arena.Close()
	ks := []float64{0.2, 0.5, 0.8, 0.95}
	labels := make([]string, len(ks))
	vals := make([]float64, len(ks))
	p := ablationPair()
	base := s.pairBaseline4G(p)
	for i, k := range ks {
		labels[i] = fmt.Sprintf("k=%.2f", k)
		cfg := core.Config{Nodes: supernode(), Mode: core.ModeStrings,
			Balance: "GWtMin", DevPolicy: "LAS"}
		cfg.Sched.LASDecay = k
		r := s.run(scenario{
			key:     fmt.Sprintf("abl-las/%.2f", k),
			cfg:     cfg,
			streams: s.pairStreams(p, true),
		})
		vals[i] = weightedSpeedup(p, base, r)
	}
	tab := &metrics.Table{
		Title:  "Ablation: LAS decay constant k (eq. 1) vs speedup over 4-GPU GRR",
		Labels: labels,
	}
	tab.Add("LAS-Strings", vals)
	return tab
}

// AblationAccountingLag sweeps the Request Monitor's accounting staleness
// under TFS to quantify how coarse monitoring (Rain's handicap) erodes
// fairness control.
func (s *Suite) AblationAccountingLag() *metrics.Table {
	defer s.arena.Close()
	lags := []sim.Time{0, 50 * sim.Millisecond, 200 * sim.Millisecond, 1 * sim.Second}
	labels := make([]string, len(lags))
	vals := make([]float64, len(lags))
	p := ablationPair()
	for i, lag := range lags {
		labels[i] = lag.String()
		cfg := core.Config{Nodes: oneGPU(), Mode: core.ModeStrings,
			Balance: "GRR", DevPolicy: "TFS"}
		cfg.Sched.AccountingLag = lag
		vals[i] = s.jainCell(cfg, p, fmt.Sprintf("abl-lag/%v", lag))
	}
	tab := &metrics.Table{
		Title:  "Ablation: Request Monitor accounting lag vs TFS fairness (Jain)",
		Labels: labels,
	}
	tab.Add("TFS-Strings", vals)
	return tab
}

// AblationArbiter compares MBF behind the Policy Arbiter (dynamic switching
// once feedback arrives) against pure static GWtMin — isolating the value of
// dynamic policy switching.
func (s *Suite) AblationArbiter() *metrics.Table {
	defer s.arena.Close()
	p := ablationPair()
	base := s.pairBaseline1N(p)
	labels := []string{"GWtMin (static)", "PA on (MBF)"}
	vals := make([]float64, 2)

	r := s.run(scenario{
		key:     "abl-pa/static",
		cfg:     core.Config{Nodes: supernode(), Mode: core.ModeStrings, Balance: "GWtMin"},
		streams: s.pairStreams(p, true),
	})
	vals[0] = weightedSpeedup(p, base, r)

	r = s.run(scenario{
		key:     "abl-pa/on",
		cfg:     core.Config{Nodes: supernode(), Mode: core.ModeStrings, Balance: "MBF"},
		streams: s.pairStreams(p, true),
	})
	vals[1] = weightedSpeedup(p, base, r)

	tab := &metrics.Table{
		Title:  "Ablation: Policy Arbiter dynamic switching (DC-MC pair, WS vs 1N-GRR)",
		Labels: labels,
	}
	tab.Add("WS", vals)
	return tab
}
