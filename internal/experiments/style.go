package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// AblationAppStyle contrasts hand-optimized applications (explicit streams,
// double-buffered asynchronous copies) with naive synchronous ones, under
// the bare runtime and under Strings. The paper's interposer asynchrony
// (§III.B.2) shows up clearly: an unmodified synchronous application under
// Strings finishes far ahead of even the hand-pipelined application on the
// bare runtime, because Strings combines the recovered asynchrony with
// balancing and context packing.
//
// Every series runs with cudaMalloc waiting for device memory instead of
// failing (core.Config.BlockOnOOM, the scenario key memguard=true). A pipelined
// application holds two staging buffers, so on the bare runtime, where every
// request lands on the 1 GiB Quadro 2000, the ninth concurrent MC request does
// not fit; the paper assumes the arrival rate never gets there, and the
// default 12 requests a stream does. Up to 8 requests no allocation waits.
func (s *Suite) AblationAppStyle() *metrics.Table {
	kinds := []workload.Kind{workload.MonteCarlo, workload.BinomialOptions}
	labels := make([]string, len(kinds))
	rows := map[string][]float64{}
	series := []struct {
		name  string
		mode  core.Mode
		style workload.Style
	}{
		{"CUDA/sync", core.ModeCUDA, workload.StyleSync},
		{"CUDA/pipelined", core.ModeCUDA, workload.StylePipelined},
		{"Strings/sync", core.ModeStrings, workload.StyleSync},
		{"Strings/pipelined", core.ModeStrings, workload.StylePipelined},
	}
	for i, k := range kinds {
		labels[i] = k.String()
		for _, sr := range series {
			sc := s.on(system{mode: sr.mode}, singleNode, scenario.Stream{Kind: k, Count: s.opt.Requests})
			sc.Style, sc.BlockOnOOM = sr.style, true
			rows[sr.name] = append(rows[sr.name], float64(s.run(sc).AvgCompletion(k))/1e6)
		}
	}
	tab := &metrics.Table{
		Title:  "Ablation: application style vs mean completion (s) — interposer asynchrony recovers the hand-tuned pipeline",
		Labels: labels,
	}
	for _, sr := range series {
		tab.Add(sr.name, rows[sr.name])
	}
	return tab
}
