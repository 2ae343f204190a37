// strings-trace renders per-device utilization timelines (Figure 1/2 style)
// and per-request span timelines for one scenario.
//
// Usage:
//
//	strings-trace [-scenario 'streams=MC:6;lambda=0.4;seed=1'] [-width 80]
//	              [-json out.json] [-trace out.json] [-jsonl out.jsonl]
//	              [-audit]
//
// The scenario's text form is internal/scenario's. -json writes the raw
// device-utilization segments; -trace writes the span stream as Chrome
// trace-event JSON (chrome://tracing), -jsonl as compact JSONL; -audit prints
// the balancer's decision-audit log.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses args, runs the scenario and renders
// the timelines; a bad scenario or flag exits 1 with the reason (and, for a
// name, the valid ones) on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("strings-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	text := fs.String("scenario", "fleet=Quadro2000+TeslaC2050;mode=strings;balance=GMin;streams=MC:6;lambda=0.4;seed=1",
		"the run, in internal/scenario's text form")
	width := fs.Int("width", 80, "strip width")
	jsonOut := fs.String("json", "", "write raw device-utilization segments (JSON) to this file")
	traceOut := fs.String("trace", "", "write the span stream as Chrome trace-event JSON to this file")
	jsonlOut := fs.String("jsonl", "", "write the span stream as compact JSONL to this file")
	audit := fs.Bool("audit", false, "print the balancer's decision-audit log")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "strings-trace: %v\n", err)
		return 1
	}
	if *width < 1 {
		return fail(fmt.Errorf("-width must be at least 1 (got %d)", *width))
	}
	sc, err := scenario.Parse(*text)
	if err == nil && sc.Supernodes > 0 {
		err = fmt.Errorf("a supernodes= scenario is the cluster tier's: run it with strings-bench -exp cluster -scenario")
	}
	if err != nil {
		return fail(err)
	}

	rec := trace.New()
	cfg, streams := sc.Core()
	cfg.Trace, cfg.Recorder = true, rec
	cluster, err := core.New(cfg)
	if err != nil {
		return fail(err)
	}
	defer cluster.Close()
	r, err := cluster.Run(streams)
	if err != nil {
		return fail(err)
	}
	if len(r.Errors) > 0 {
		return fail(fmt.Errorf("application errors: %v", r.Errors))
	}

	runs := make([]string, len(streams))
	for i, st := range streams {
		runs[i] = fmt.Sprintf("%d %v", st.Count, st.Kind)
	}
	fmt.Fprintf(stdout, "%s requests under %v/%s, makespan %v\n\n", strings.Join(runs, " + "), cfg.Mode, cfg.Balance, r.EndTime)
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
			return fail(err)
		}
		fmt.Fprintf(stdout, "raw traces written to %s\n\n", *jsonOut)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, set.WriteChrome); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "chrome trace (%d spans) written to %s — load it at chrome://tracing\n\n",
			len(set.Spans), *traceOut)
	}
	if *jsonlOut != "" {
		if err := writeFile(*jsonlOut, set.WriteJSONL); err != nil {
			return fail(err)
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
		return fail(err)
	}
	if *audit {
		fmt.Fprintf(stdout, "\ndecision audit:\n")
		if err := set.WriteDecisions(stdout); err != nil {
			return fail(err)
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
