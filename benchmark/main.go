// Command benchmark is the repo's benchmark harness: four simulator
// workloads, each run in its own process through the public functions of the
// layers, reporting end-to-end metrics from untraced, unprofiled passes
// (-trace 0) and a per-layer ledger from a traced run (-trace 1). See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./benchmark -workload node_mega -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -workload all -out A.json
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's entry in a results file (-out): what the
// runs printed, plus the digest of the simulated output.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	SimDigest string                 `json:"sim_digest"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// outDir is where a run leaves its files, relative to the repo root the
// command runs from: the host-span traces and, for -workload all, the
// per-process result files. benchmark/.gitignore keeps it out of the tree.
const outDir = "benchmark/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one child process each)")
	seed := fs.Int64("seed", 1, "workload seed; the program receives only the inputs generated from it")
	seconds := fs.Float64("seconds", 15, "how long the timed passes (-trace 0) or the profiled passes (-trace 1) run")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from the traced run")
	out := fs.String("out", "", "also write the results as JSON to this file (default for -workload all: "+outDir+"/results.json)")
	compare := fs.Bool("compare", false, "compare two results files given as arguments, against the bounds in ./BENCHMARK.json; exit 1 on a regression or a digest mismatch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two results files"))
		}
		ok, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode))
	}
	if *name == "all" {
		if err := runAll(stdout, stderr, *seed, *seconds, *out); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	cfg := runConfig{seed: *seed, frac: 1, seconds: *seconds, minPasses: 3, setups: 5, overheadReps: 3, driverFrac: 1}
	var res *runResult
	var err error
	if *traceMode == 0 {
		res, err = runEndToEnd(w, cfg)
	} else {
		cfg.spanPath = filepath.Join(outDir, w.name+".trace.json")
		res, err = runTraced(w, cfg)
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	defs := endToEndMetrics
	if *traceMode == 1 {
		defs = perLayerMetrics
	}
	line, err := res.line(defs)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %s %s\n", d.name, formatValue(line.Metrics[d.name].Value), d.unit)
	}
	fmt.Fprintf(stdout, "%-34s %s\n", "sim_digest", res.digest)
	if *out != "" {
		wr := &workloadResult{Attempted: res.attempted, Failed: res.failed, SimDigest: res.digest}
		if *traceMode == 0 {
			wr.EndToEnd = line.Metrics
		} else {
			wr.PerLayer = line.Metrics
		}
		file := resultsFile{Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadResult{w.name: wr}}
		if err := writeJSON(*out, file); err != nil {
			return fail(err)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// line checks that res holds exactly one finite value per defined metric and
// builds the result line.
func (res *runResult) line(defs []metricDef) (*resultLine, error) {
	line := &resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return line, nil
}

// runAll runs every workload, untraced then traced, each in a child process
// of this same binary, and merges their result files.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(outDir, "results.json")
	}
	merged := resultsFile{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		for _, mode := range []int{0, 1} {
			part := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", w.name, mode))
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", formatValue(seconds), "-trace", strconv.Itoa(mode),
				"-out", part)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			fmt.Fprintf(stdout, "== %s -trace %d\n", w.name, mode)
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, mode, err)
			}
			var f resultsFile
			if err := readJSON(part, &f); err != nil {
				return err
			}
			got := f.Workloads[w.name]
			if got == nil {
				return fmt.Errorf("%s holds no %s entry", part, w.name)
			}
			if have := merged.Workloads[w.name]; have == nil {
				merged.Workloads[w.name] = got
			} else {
				// The traced run repeats the untraced run's full-size pass, so
				// the two digests must agree.
				if have.SimDigest != got.SimDigest {
					return fmt.Errorf("%s: sim_digest differs between the untraced run (%s) and the traced run (%s)",
						w.name, have.SimDigest, got.SimDigest)
				}
				have.PerLayer = got.PerLayer
			}
		}
	}
	if err := writeJSON(out, merged); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", out)
	return nil
}
