package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/metrics"
)

// paperAVG holds the AVG values the paper reports for the series
// EXPERIMENTS.md tabulates for Figures 9, 10 and 12, keyed by the table name
// policy_grid uses and then by series.
var paperAVG = map[string]map[string]float64{
	"fig9": {
		"GRR-Rain": 2.16, "GMin-Rain": 2.37, "GWtMin-Rain": 2.34,
		"GRR-Strings": 3.10, "GMin-Strings": 4.90, "GWtMin-Strings": 4.73,
	},
	"fig10": {
		"GRR-Rain": 1.60, "GMin-Rain": 1.80, "GWtMin-Rain": 1.82,
		"GRR-Strings": 2.64, "GMin-Strings": 2.69, "GWtMin-Strings": 2.88,
	},
	"fig12": {
		"GWtMinLAS-Rain": 2.18, "GWtMinLAS-Strings": 3.10, "GWtMinPS-Strings": 2.97,
	},
}

// paperErrPct is the mean of |ours/paper - 1| over the paperAVG series, in
// percent. The model has no other validation, and policy_grid's reduced grid
// reads differently from the full suite, so the number compares commits and
// not grids.
func paperErrPct(tables map[string]*metrics.Table) float64 {
	var sum float64
	n := 0
	for _, fig := range slices.Sorted(maps.Keys(paperAVG)) {
		for _, series := range slices.Sorted(maps.Keys(paperAVG[fig])) {
			sum += math.Abs(avgOf(tables[fig], series)/paperAVG[fig][series] - 1)
			n++
		}
	}
	return 100 * sum / float64(n)
}

// orderViolations lists every place where, in a speedup figure, a Strings AVG
// series falls below its Rain twin, or any AVG series falls below 1.
func orderViolations(tables map[string]*metrics.Table) []string {
	var out []string
	for _, fig := range []string{"fig9", "fig10", "fig12", "fig14"} {
		t := tables[fig]
		for _, s := range t.Series {
			avg := avgOf(t, s.Name)
			if avg < 1 {
				out = append(out, fmt.Sprintf("%s %s AVG %.3f < 1", fig, s.Name, avg))
			}
			policy, ok := strings.CutSuffix(s.Name, "-Strings")
			if !ok {
				continue
			}
			if twin := t.Row(policy + "-Rain"); twin != nil && avg < twin[len(twin)-1] {
				out = append(out, fmt.Sprintf("%s %s AVG %.3f < %s-Rain %.3f",
					fig, s.Name, avg, policy, twin[len(twin)-1]))
			}
		}
	}
	return out
}
