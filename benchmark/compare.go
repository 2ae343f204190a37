package main

import (
	"fmt"
	"io"
	"strings"
)

// benchmarkSpec is BENCHMARK.json, as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json; only end-to-end metrics carry
// a bound.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// simulated reports whether a metric is a simulated result, which a fixed
// seed repeats exactly, and not a host-time measurement.
func simulated(name string) bool {
	return strings.HasPrefix(name, "sim_") || strings.Contains(name, ".sim_") ||
		name == "experiments.paper_err_pct"
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// relative difference of b against a and the bound, and reports whether b is
// acceptable: no host-time metric worse than its bound, every simulated
// metric and every sim_digest exactly equal.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b resultsFile
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	ok := true
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "seeds differ (%d vs %d): simulated metrics are not comparable\n", a.Seed, b.Seed)
		ok = false
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: missing from %s\n", wl.name, map[bool]string{true: aPath, false: bPath}[ra == nil])
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		if ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(w, "  %-24s %s != %s  FAIL\n", "sim_digest", ra.SimDigest[:min(12, len(ra.SimDigest))], rb.SimDigest[:min(12, len(rb.SimDigest))])
			ok = false
		}
		if ra.Failed != rb.Failed || ra.Attempted != rb.Attempted {
			fmt.Fprintf(w, "  %-24s %d/%d != %d/%d  FAIL\n", "failed/attempted", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, d := range spec.EndToEnd {
			if d.Bound == nil {
				return false, fmt.Errorf("%s: end-to-end metric %s has no bound", specPath, d.Name)
			}
			bound := *d.Bound
			va, hasA := ra.EndToEnd[d.Name]
			vb, hasB := rb.EndToEnd[d.Name]
			if !hasA || !hasB {
				fmt.Fprintf(w, "  %-24s missing  FAIL\n", d.Name)
				ok = false
				continue
			}
			rel := 0.0
			if va.Value != 0 {
				rel = (vb.Value - va.Value) / va.Value
			}
			verdict := "ok"
			switch {
			case simulated(d.Name):
				if va.Value != vb.Value {
					verdict = "FAIL (simulated, must be equal)"
				}
			case d.Better == lower && rel > bound, d.Better == higher && rel < -bound:
				verdict = "FAIL (worse than the bound)"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(w, "  %-24s %14.6g %14.6g %-6s %+7.2f%%  bound %4.1f%%  %s\n",
				d.Name, va.Value, vb.Value, d.Unit, 100*rel, 100*bound, verdict)
		}
		// Simulated layer metrics have no bound but must still repeat.
		for _, d := range perLayerMetrics {
			va, hasA := ra.PerLayer[d.name]
			vb, hasB := rb.PerLayer[d.name]
			if simulated(d.name) && hasA && hasB && va.Value != vb.Value {
				fmt.Fprintf(w, "  %-24s %14.6g %14.6g %-6s  FAIL (simulated, must be equal)\n",
					d.name, va.Value, vb.Value, d.unit)
				ok = false
			}
		}
	}
	return ok, nil
}
