// strings-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	strings-bench [-exp all|table1|fig1|fig2|fig9|fig10|fig11|fig12|fig13|fig14|fig15|headline|frag|ablations|faults|cluster]
//	              [-requests N] [-lambda F] [-seed S] [-pairs N] [-width W]
//	              [-parallel N] [-seeds N] [-scenario SCENARIO]
//	              [-csv] [-html out.html]
//	              [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Each experiment prints the same rows/series as the corresponding table or
// figure in "Scheduling Multi-tenant Cloud Workloads on Accelerator-based
// Systems" (SC'14). Absolute numbers come from the simulated testbed; the
// shapes — which policy wins, by roughly what factor — are the
// reproduction targets. The frag experiment is the slice-placement study:
// MIG-partitioned devices under mixed 1g..7g tenants, comparing the
// fragmentation-gradient policy against GMin and GRR on stranded capacity
// and tail latency.
//
// Two experiments are opt-in: excluded from -exp all, they run only when
// named. faults is the degradation study (a node killed mid-run). cluster
// is the cluster-tier study: -scenario's open-arrival tenants placed over its
// supernodes (internal/scenario's text form; by default three two-node
// supernodes of Quadro 2000 + Tesla C2050 pairs), one run per placement
// policy, reported as one table with a series per policy.
//
// -parallel bounds how many experiment cells (or supernode runs) execute
// concurrently (0 = GOMAXPROCS, 1 = sequential). Output is byte-identical
// at every setting: cells are collected in grid order, not completion
// order. -cpuprofile and -memprofile capture pprof profiles of whatever
// ran. Host-time measurement lives in the repo benchmark (go run
// ./benchmark, see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// clusterTable runs the cluster-tier scenario once per placement policy and
// tabulates the admission counters, volume and latency tail with one series
// per policy (the scenario's own policy= is not read). Every value is
// simulated, so the table is identical at any workers setting.
func clusterTable(sc scenario.Scenario, workers int) (*metrics.Table, error) {
	tab := &metrics.Table{
		Title: fmt.Sprintf("Cluster tier: %d-supernode fleet, %v", sc.Supernodes, sc.Arrivals),
		Labels: []string{"born", "placed", "parked", "rejected", "conflicts",
			"requests", "events", "p50 s", "p99 s", "p999 s", "fairness"},
	}
	for _, policy := range cluster.Policies() {
		cfg := sc.Cluster()
		cfg.Policy, cfg.Workers = policy, workers
		r, err := cluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		tab.Add(policy, []float64{
			float64(r.Log.Born), float64(r.Log.Placed), float64(r.Log.Parked),
			float64(r.Log.Rejected), float64(r.Log.Conflicts),
			float64(r.Requests), float64(r.Events),
			r.P50.Seconds(), r.P99.Seconds(), r.P999.Seconds(), r.Fairness,
		})
	}
	return tab, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses args, validates every flag with an
// exit-1-and-list-the-valid-range failure mode, and dispatches to the table
// of experiment runners.
func run(args []string, out, errOut io.Writer) int {
	allPairs := workload.Pairs()
	fs := flag.NewFlagSet("strings-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	exp := fs.String("exp", "all", "experiment to run (all, table1, fig1, fig2, fig9..fig15, headline, frag, ablations, faults, cluster; faults and cluster are opt-in and excluded from all)")
	requests := fs.Int("requests", 12, "requests per short-job stream")
	lambda := fs.Float64("lambda", 0.6, "mean inter-arrival as a fraction of solo runtime")
	seed := fs.Int64("seed", 1, "simulation seed")
	pairs := fs.Int("pairs", len(allPairs), "number of workload pairs (prefix of A..X)")
	width := fs.Int("width", 72, "width of utilization strips")
	parallelN := fs.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	seeds := fs.Int("seeds", 1, "replications per scenario (pooled)")
	csv := fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	htmlOut := fs.String("html", "", "also write an HTML report with SVG charts to this path")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	clusterText := fs.String("scenario", "supernodes=3;fleet=Quadro2000+TeslaC2050/Quadro2000+TeslaC2050;arrivals=poisson:rate=0.5,horizon=2400s,kind=GA,life=80s,lambda=800ms,bigevery=16,bigslots=2;seed=1",
		"the cluster-tier run of -exp cluster, in internal/scenario's text form")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// Validate every value before any work: a bad one must fail fast,
	// non-zero, and say what would have been accepted (the same treatment
	// -exp gives unknown experiment names).
	if *parallelN < 0 {
		fmt.Fprintf(errOut, "invalid -parallel %d\nvalid range: >= 0 (0 = GOMAXPROCS, 1 = sequential, N = N workers)\n", *parallelN)
		return 1
	}
	if *pairs < 1 || *pairs > len(allPairs) {
		fmt.Fprintf(errOut, "invalid -pairs %d\nvalid range: 1..%d (a prefix of the workload pairs A..X)\n", *pairs, len(allPairs))
		return 1
	}
	clusterRun, err := scenario.Parse(*clusterText)
	if err == nil && clusterRun.Supernodes == 0 {
		err = fmt.Errorf("no supernodes= (a single deployment runs under strings-run)")
	}
	if err != nil {
		fmt.Fprintf(errOut, "invalid -scenario: %v\n", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(errOut, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errOut, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	suite := experiments.NewSuite(experiments.Options{
		Seed:         *seed,
		Requests:     *requests,
		LambdaFactor: *lambda,
		Workers:      *parallelN,
		Seeds:        *seeds,
		Pairs:        allPairs[:*pairs],
	})

	var page *report.Page
	if *htmlOut != "" {
		page = report.NewPage("Strings (SC'14) reproduction — measured figures")
	}
	render := func(t *metrics.Table) {
		if *csv {
			fmt.Fprintln(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.Format())
		}
		if page != nil {
			page.AddTable(t)
		}
	}
	// tables is the common runner shape: build each table, render it.
	tables := func(build ...func() *metrics.Table) func() error {
		return func() error {
			for _, b := range build {
				render(b())
			}
			return nil
		}
	}
	runners := []struct {
		name string
		// extra experiments run only when named explicitly, never under
		// -exp all: they study a configuration beyond the paper's figures
		// (fault injection, the cluster tier).
		extra bool
		fn    func() error
	}{
		{name: "table1", fn: tables(suite.TableI)},
		{name: "fig1", fn: tables(suite.Fig1)},
		{name: "fig2", fn: func() error {
			o := suite.Fig2().Format(*width)
			fmt.Fprintln(out, o)
			if page != nil {
				page.AddPre("Fig 2: sequential vs concurrent Monte Carlo", o)
			}
			return nil
		}},
		{name: "fig9", fn: tables(suite.Fig9)},
		{name: "fig10", fn: tables(suite.Fig10)},
		{name: "fig11", fn: tables(suite.Fig11)},
		{name: "fig12", fn: tables(suite.Fig12)},
		{name: "fig13", fn: tables(suite.Fig13)},
		{name: "fig14", fn: tables(suite.Fig14)},
		{name: "fig15", fn: tables(suite.Fig15)},
		{name: "headline", fn: tables(suite.Headline)},
		{name: "frag", fn: tables(suite.FragPacking)},
		{name: "ablations", fn: tables(
			suite.AblationContextSwitch,
			suite.AblationCopyEngines,
			suite.AblationRemoteBandwidth,
			suite.AblationLASDecay,
			suite.AblationAccountingLag,
			suite.AblationArbiter,
			suite.AblationAppStyle,
		)},
		{name: "faults", extra: true, fn: tables(suite.Faults)},
		{name: "cluster", extra: true, fn: func() error {
			t, err := clusterTable(clusterRun, *parallelN)
			if err != nil {
				return err
			}
			render(t)
			return nil
		}},
	}

	// Validate -exp before running anything: an unknown name must fail
	// fast, non-zero, and tell the user what would have been accepted.
	want := strings.ToLower(*exp)
	known := want == "all"
	names := []string{"all"}
	var optIn []string
	for _, r := range runners {
		names = append(names, r.name)
		if r.extra {
			optIn = append(optIn, r.name)
		}
		if want == r.name {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(errOut, "unknown experiment %q\nvalid experiments: %s\n(opt-in, excluded from -exp all and run only when named: %s)\n",
			*exp, strings.Join(names, ", "), strings.Join(optIn, ", "))
		return 1
	}

	sw := parallel.StartStopwatch()
	for _, r := range runners {
		if (want == "all" && !r.extra) || want == r.name {
			if err := r.fn(); err != nil {
				fmt.Fprintf(errOut, "%s: %v\n", r.name, err)
				return 1
			}
		}
	}
	if page != nil {
		if err := page.WriteFile(*htmlOut); err != nil {
			fmt.Fprintf(errOut, "writing %s: %v\n", *htmlOut, err)
			return 1
		}
		fmt.Fprintf(out, "HTML report written to %s\n", *htmlOut)
	}
	fmt.Fprintf(out, "(%d simulations, %.1fs wall)\n", suite.Runs, sw.Seconds())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(errOut, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(errOut, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
