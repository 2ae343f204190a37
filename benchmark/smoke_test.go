package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesHarness holds BENCHMARK.json and the harness's own tables
// together: same workloads, same metrics, same units and directions.
func TestSpecMatchesHarness(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, d.name)
			}
			seen[d.name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	check("per_layer", spec.PerLayer, perLayerMetrics, false)
}

// skipIfShort keeps the smoke runs out of make race (-race -short), where
// their dozens of whole simulations would take minutes and race nothing the
// layers' own tests do not.
func skipIfShort(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-simulation smoke run")
	}
}

// smokeConfig runs everything at a hundredth of the size, two passes.
func smokeConfig(seed int64) runConfig {
	return runConfig{seed: seed, frac: 0.01, minPasses: 2, setups: 1, overheadReps: 1, driverFrac: 0.0005}
}

// TestSmokeEndToEnd runs every workload's untraced protocol at 1/100 scale:
// the correctness checks pass, exactly the end-to-end metrics are emitted,
// and the simulated output is a function of the seed.
func TestSmokeEndToEnd(t *testing.T) {
	skipIfShort(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, smokeConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			line, err := res.line(endToEndMetrics)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.metrics) != len(endToEndMetrics) {
				t.Errorf("run measured %d metrics, BENCHMARK.json names %d: %v", len(res.metrics), len(endToEndMetrics), res.metrics)
			}
			for name, v := range line.Metrics {
				if v.Value == 0 {
					t.Errorf("%s is 0; end-to-end metrics must never be", name)
				}
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("attempted %d failed %d, want at least one and none", res.attempted, res.failed)
			}
			digest := func(seed int64) string {
				in, err := w.setup(seed, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				out, err := in.pass(passOpts{workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				return out.digest
			}
			if d := digest(1); d != res.digest {
				t.Errorf("same seed at 2 workers gave sim_digest %s, the run %s", d, res.digest)
			}
			if d := digest(2); d == res.digest {
				t.Errorf("seed 2 gave the same sim_digest %s as seed 1", d)
			}
		})
	}
}

// TestSmokeTraced runs the traced protocol at 1/100 scale on the two
// workloads with the most layer-specific plumbing and checks the per-layer
// ledger is complete and the host-span file is written.
func TestSmokeTraced(t *testing.T) {
	skipIfShort(t)
	for _, name := range []string{"fleet_sharded", "cluster_bursty"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			cfg := smokeConfig(1)
			cfg.spanPath = filepath.Join(t.TempDir(), "out", name+".trace.json")
			res, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.line(perLayerMetrics); err != nil {
				t.Fatal(err)
			}
			if len(res.metrics) != len(perLayerMetrics) {
				t.Errorf("run measured %d metrics, the ledger names %d", len(res.metrics), len(perLayerMetrics))
			}
			for _, must := range []string{"sim.events", "sim.dispatch_ns", "trace.spans", "interpose.calls",
				"gpu.sim_op_s", "rpcproto.codec_roundtrip_ns", w.parallelMetric} {
				if res.metrics[must] <= 0 {
					t.Errorf("%s = %v, want > 0", must, res.metrics[must])
				}
			}
			var trace struct {
				TraceEvents []struct {
					Name string `json:"name"`
				} `json:"traceEvents"`
			}
			if err := readJSON(cfg.spanPath, &trace); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range trace.TraceEvents {
				seen[e.Name] = true
			}
			for _, must := range []string{"setup", "digest", "driver.sim"} {
				if !seen[must] {
					t.Errorf("host-span trace has no %q span: %v", must, seen)
				}
			}
		})
	}
}

// TestCompare checks the verdicts of -compare: equal files pass, a host-time
// regression beyond the bound fails, a better value passes, and any change to
// a simulated metric or the digest fails.
func TestCompare(t *testing.T) {
	spec := filepath.Join("..", "BENCHMARK.json")
	base := func() resultsFile {
		f := resultsFile{Seed: 1, Seconds: 1, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			r := &workloadResult{Attempted: 10, SimDigest: "abc", EndToEnd: map[string]metricValue{}}
			for _, d := range endToEndMetrics {
				r.EndToEnd[d.name] = metricValue{Value: 100, Unit: d.unit}
			}
			f.Workloads[w.name] = r
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultsFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base())
	for _, tc := range []struct {
		name   string
		mutate func(f *resultsFile)
		want   bool
	}{
		{"equal", func(f *resultsFile) {}, true},
		{"throughput halves", func(f *resultsFile) {
			f.Workloads["node_mega"].EndToEnd["requests_per_s"] = metricValue{Value: 50}
		}, false},
		{"throughput doubles", func(f *resultsFile) {
			f.Workloads["node_mega"].EndToEnd["requests_per_s"] = metricValue{Value: 200}
		}, true},
		{"set-up doubles", func(f *resultsFile) {
			f.Workloads["policy_grid"].EndToEnd["setup_s"] = metricValue{Value: 200}
		}, false},
		{"simulated metric moves", func(f *resultsFile) {
			f.Workloads["cluster_bursty"].EndToEnd["sim_jain_fairness"] = metricValue{Value: 100.0001}
		}, false},
		{"digest differs", func(f *resultsFile) { f.Workloads["fleet_sharded"].SimDigest = "abd" }, false},
		{"workload missing", func(f *resultsFile) { delete(f.Workloads, "policy_grid") }, false},
	} {
		f := base()
		tc.mutate(&f)
		var out bytes.Buffer
		got, err := compareFiles(&out, spec, a, write("b.json", f))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: compare accepted = %v, want %v\n%s", tc.name, got, tc.want, out.String())
		}
	}
}
