package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
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

// respec is a copy of fleet with set applied to every device's spec.
func respec(fleet []core.NodeConfig, set func(*gpu.Spec)) []core.NodeConfig {
	out := make([]core.NodeConfig, len(fleet))
	for n, node := range fleet {
		out[n].Devices = append([]gpu.Spec(nil), node.Devices...)
		for d := range out[n].Devices {
			set(&out[n].Devices[d])
		}
	}
	return out
}

// AblationContextSwitch sweeps the driver's context-switch cost and
// reports the pair's mean completion time under Rain (per-app contexts)
// and Strings (packed context). Strings should be insensitive: packing
// removes the switches entirely.
func (s *Suite) AblationContextSwitch() *metrics.Table {
	costs := []sim.Time{0, 200 * sim.Microsecond, 700 * sim.Microsecond, 2 * sim.Millisecond}
	labels := make([]string, len(costs))
	rain := make([]float64, len(costs))
	strs := make([]float64, len(costs))
	p := ablationPair()
	for i, cost := range costs {
		labels[i] = cost.String()
		fleet := respec(singleNode, func(d *gpu.Spec) { d.ContextSwitch = cost })
		for _, mode := range []core.Mode{core.ModeRain, core.ModeStrings} {
			r := s.run(s.on(system{mode: mode}, fleet, s.pairStreams(p, false)...))
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
	p := ablationPair()
	labels := []string{"1 engine", "2 engines"}
	vals := make([]float64, 2)
	for i, engines := range []int{1, 2} {
		fleet := respec(singleNode, func(d *gpu.Spec) { d.CopyEngines = engines })
		r := s.run(s.on(system{mode: core.ModeStrings, dev: "PS"}, fleet, s.pairStreams(p, false)...))
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
	bands := []float64{125, 500, 2000, 8000}
	labels := make([]string, len(bands))
	vals := make([]float64, len(bands))
	p := ablationPair()
	base := s.pairBaseline1N(p)
	for i, bw := range bands {
		labels[i] = fmt.Sprintf("%.0fMB/s", bw)
		sc := s.on(system{mode: core.ModeStrings, bal: "GRR"}, supernode, s.pairStreams(p, true)...)
		sc.LinkBW = bw
		vals[i] = weightedSpeedup(p, base, s.run(sc))
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
	ks := []float64{0.2, 0.5, 0.8, 0.95}
	labels := make([]string, len(ks))
	vals := make([]float64, len(ks))
	p := ablationPair()
	base := s.pairBaseline4G(p)
	for i, k := range ks {
		labels[i] = fmt.Sprintf("k=%.2f", k)
		sc := s.on(system{mode: core.ModeStrings, bal: "GWtMin", dev: "LAS"}, supernode, s.pairStreams(p, true)...)
		sc.LASDecay = k
		vals[i] = weightedSpeedup(p, base, s.run(sc))
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
	lags := []sim.Time{0, 50 * sim.Millisecond, 200 * sim.Millisecond, 1 * sim.Second}
	labels := make([]string, len(lags))
	vals := make([]float64, len(lags))
	p := ablationPair()
	for i, lag := range lags {
		labels[i] = lag.String()
		sc := s.on(system{mode: core.ModeStrings, bal: "GRR", dev: "TFS"}, oneGPU)
		sc.AcctLag = lag
		vals[i] = s.jainCell(sc, p)
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
	p := ablationPair()
	base := s.pairBaseline1N(p)
	labels := []string{"GWtMin (static)", "PA on (MBF)"}
	vals := make([]float64, 2)
	for i, bal := range []string{"GWtMin", "MBF"} {
		r := s.run(s.on(system{mode: core.ModeStrings, bal: bal}, supernode, s.pairStreams(p, true)...))
		vals[i] = weightedSpeedup(p, base, r)
	}

	tab := &metrics.Table{
		Title:  "Ablation: Policy Arbiter dynamic switching (DC-MC pair, WS vs 1N-GRR)",
		Labels: labels,
	}
	tab.Add("WS", vals)
	return tab
}
