// strings-run executes one scenario — a fleet, a runtime mode, a balancing
// policy, a device-level policy and a set of request streams, run to
// completion or cut at horizon= — and prints its per-kind completion times
// and per-device counters. A failing experiment cell prints the -scenario
// that replays it here.
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
	cluster, r, err := sc.Run(scenario.Env{})
	if err != nil {
		return fail(err)
	}
	defer cluster.Close()

	fmt.Fprintf(stdout, "mode=%s balance=%s dev=%s nodes=%d seed=%d\n",
		sc.Mode, sc.Balance, sc.Dev, len(sc.Fleet), sc.Seed)
	fmt.Fprintf(stdout, "requests: %d launched, %d finished, horizon %v\n\n",
		r.Launched, r.Finished, r.EndTime)
	for _, k := range r.Kinds() {
		fmt.Fprintf(stdout, "  %-3v %3d requests, avg %v, p50 %v, p95 %v\n",
			k, len(r.Completions(k)), r.AvgCompletion(k),
			r.PercentileCompletion(k, 0.5), r.PercentileCompletion(k, 0.95))
	}
	if sc.Horizon > 0 { // what a cut run measures: each tenant's service in the window
		for tenant := range int64(len(sc.Streams)) {
			fmt.Fprintf(stdout, "  tenant %d served %v\n", tenant+1, r.TenantService[tenant+1])
		}
	}
	fmt.Fprintln(stdout)
	for gid, d := range cluster.Devices() {
		st := d.Stats()
		fmt.Fprintf(stdout, "  GID %d %-12s kernels %4d, copies %4d, switches %3d, compute busy %v\n",
			gid, d.Spec().Name, st.KernelsDone, st.CopiesDone, st.Switches, st.ComputeBusy)
	}
	return 0
}
