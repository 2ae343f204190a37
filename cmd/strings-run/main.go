// strings-run executes one scenario — a fleet, a runtime mode, a balancing
// policy, a device-level policy and a set of request streams — and prints its
// per-kind completion times and per-device counters.
//
// Usage:
//
//	strings-run [-scenario 'fleet=Quadro2000+TeslaC2050;mode=strings;balance=GMin;streams=MC:8,DC:4;seed=1']
//
// The scenario's text form is internal/scenario's: `;`-separated key=value
// fields, keys left out at their default.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses the scenario, runs it and prints
// the report; any failure exits 1 with the reason on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("strings-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	text := fs.String("scenario", "fleet=Quadro2000+TeslaC2050;mode=strings;balance=GMin;dev=none;streams=MC:8,DC:4;lambda=0.6;style=sync;seed=1",
		"the run, in internal/scenario's text form")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "strings-run: %v\n", err)
		return 1
	}
	sc, err := scenario.Parse(*text)
	if err != nil {
		return fail(err)
	}
	if sc.Supernodes > 0 {
		return fail(fmt.Errorf("a supernodes= scenario is the cluster tier's: run it with strings-bench -exp cluster -scenario"))
	}
	cfg, streams := sc.Core()
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

	fmt.Fprintf(stdout, "mode=%s balance=%s dev=%s nodes=%d seed=%d\n",
		cfg.Mode, cfg.Balance, cfg.DevPolicy, len(cfg.Nodes), cfg.Seed)
	fmt.Fprintf(stdout, "requests: %d launched, %d finished, horizon %v\n\n",
		r.Launched, r.Finished, r.EndTime)
	for _, k := range r.Kinds() {
		fmt.Fprintf(stdout, "  %-3v %3d requests, avg %v, p50 %v, p95 %v\n",
			k, len(r.Completions(k)), r.AvgCompletion(k),
			r.PercentileCompletion(k, 0.5), r.PercentileCompletion(k, 0.95))
	}
	fmt.Fprintln(stdout)
	for gid, d := range cluster.Devices() {
		st := d.Stats()
		fmt.Fprintf(stdout, "  GID %d %-12s kernels %4d, copies %4d, switches %3d, compute busy %v\n",
			gid, d.Spec().Name, st.KernelsDone, st.CopiesDone, st.Switches, st.ComputeBusy)
	}
	return 0
}
