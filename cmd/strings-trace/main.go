// strings-trace renders per-device utilization timelines (Figure 1/2 style)
// and per-request span timelines for a request stream under a chosen runtime
// mode.
//
// Usage:
//
//	strings-trace [-kind MC] [-count 6] [-mode cuda|rain|strings]
//	              [-balance GMin] [-lambda 0.4] [-width 80] [-seed 1]
//	              [-json out.json] [-trace out.json] [-jsonl out.jsonl]
//	              [-audit]
//
// -json writes the raw device-utilization segments; -trace writes the span
// stream as Chrome trace-event JSON (chrome://tracing), -jsonl as compact
// JSONL; -audit prints the balancer's decision-audit log.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// kindNames returns the benchmark codes, in Table I order, for error
// listings.
func kindNames() []string {
	names := make([]string, len(workload.AllKinds))
	for i, k := range workload.AllKinds {
		names[i] = k.String()
	}
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses args, validates every flag with
// an exit-1-and-list-the-valid-names failure mode, executes the scenario
// and renders the timelines.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("strings-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kindArg := fs.String("kind", "MC", "benchmark code (DC, SC, BO, MM, HI, EV, BS, MC, GA, SN)")
	count := fs.Int("count", 6, "requests in the stream")
	modeArg := fs.String("mode", "strings", "runtime: cuda, rain or strings")
	balance := fs.String("balance", "GMin", "workload balancing policy")
	lambda := fs.Float64("lambda", 0.4, "mean inter-arrival as a fraction of solo runtime")
	width := fs.Int("width", 80, "strip width")
	jsonOut := fs.String("json", "", "write raw device-utilization segments (JSON) to this file")
	traceOut := fs.String("trace", "", "write the span stream as Chrome trace-event JSON to this file")
	jsonlOut := fs.String("jsonl", "", "write the span stream as compact JSONL to this file")
	audit := fs.Bool("audit", false, "print the balancer's decision-audit log")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	kind, ok := workload.KindByCode(*kindArg)
	if !ok {
		fmt.Fprintf(stderr, "strings-trace: unknown benchmark %q; valid kinds: %s\n",
			*kindArg, strings.Join(kindNames(), ", "))
		return 1
	}
	mode, ok := core.ModeByName(*modeArg)
	if !ok {
		fmt.Fprintf(stderr, "strings-trace: unknown mode %q; valid modes: cuda, rain, strings\n", *modeArg)
		return 1
	}
	validBalance := false
	for _, name := range balancer.Names() {
		if name == *balance {
			validBalance = true
		}
	}
	if !validBalance {
		fmt.Fprintf(stderr, "strings-trace: unknown balancing policy %q; valid policies: %s\n",
			*balance, strings.Join(balancer.Names(), ", "))
		return 1
	}
	if *count < 1 {
		fmt.Fprintf(stderr, "strings-trace: -count must be at least 1 (got %d)\n", *count)
		return 1
	}
	if *width < 1 {
		fmt.Fprintf(stderr, "strings-trace: -width must be at least 1 (got %d)\n", *width)
		return 1
	}
	if *lambda <= 0 {
		fmt.Fprintf(stderr, "strings-trace: -lambda must be positive (got %g)\n", *lambda)
		return 1
	}

	rec := trace.New()
	cluster, err := core.New(core.Config{
		Seed: *seed,
		Nodes: []core.NodeConfig{
			{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
		},
		Mode:     mode,
		Balance:  *balance,
		Trace:    true,
		Recorder: rec,
	})
	if err != nil {
		fmt.Fprintf(stderr, "strings-trace: %v\n", err)
		return 1
	}
	r, err := cluster.Run([]workload.StreamSpec{{
		Kind: kind, Count: *count, LambdaFactor: *lambda,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil {
		fmt.Fprintf(stderr, "strings-trace: %v\n", err)
		return 1
	}
	if len(r.Errors) > 0 {
		fmt.Fprintf(stderr, "strings-trace: application errors: %v\n", r.Errors)
		return 1
	}

	fmt.Fprintf(stdout, "%d %v requests under %v/%s, makespan %v\n\n", *count, kind, mode, *balance, r.EndTime)
	set := rec.Snapshot()
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(w io.Writer) error {
			for gid := range cluster.Devices() {
				if err := cluster.Trace(gid).WriteJSON(w); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fmt.Fprintf(stderr, "strings-trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "raw traces written to %s\n\n", *jsonOut)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, set.WriteChrome); err != nil {
			fmt.Fprintf(stderr, "strings-trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace (%d spans) written to %s — load it at chrome://tracing\n\n",
			len(set.Spans), *traceOut)
	}
	if *jsonlOut != "" {
		if err := writeFile(*jsonlOut, set.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "strings-trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "jsonl trace written to %s\n\n", *jsonlOut)
	}
	for gid, d := range cluster.Devices() {
		tr := cluster.Trace(gid)
		busy := tr.MeanBusy(r.EndTime)
		cu, bu := tr.MeanUtil(r.EndTime)
		fmt.Fprintf(stdout, "GID %d %-12s |%s|\n", gid, d.Spec().Name, tr.RenderBusy(r.EndTime, *width))
		fmt.Fprintf(stdout, "  busy %4.0f%%  compute %4.0f%%  mem-bw %4.0f%%  glitches %d\n\n",
			100*busy, 100*cu, 100*bu, tr.BusyGlitchCount())
	}
	fmt.Fprintf(stdout, "request timeline (%d spans, %d events, %d decisions):\n",
		len(set.Spans), len(set.Events), len(set.Decisions))
	if err := set.WriteTimeline(stdout); err != nil {
		fmt.Fprintf(stderr, "strings-trace: %v\n", err)
		return 1
	}
	if *audit {
		fmt.Fprintf(stdout, "\ndecision audit:\n")
		if err := set.WriteDecisions(stdout); err != nil {
			fmt.Fprintf(stderr, "strings-trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeFile creates path and streams fn's output into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
