// Analysis: run a multi-tenant scenario, then use the library's analysis
// surfaces — the per-request JSONL log, tail percentiles, and the HTML/SVG
// report generator — to inspect it the way an operator would.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	sc, err := scenario.Parse("fleet=Quadro2000+TeslaC2050;mode=strings;balance=MBF;streams=HI:5,MC:10;lambda=0.5;seed=77")
	if err != nil {
		log.Fatal(err)
	}
	cluster, r, err := sc.Run(scenario.Env{})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Tail latency per class.
	fmt.Println("latency per class:")
	for _, k := range r.Kinds() {
		fmt.Printf("  %-3v avg %v   p50 %v   p95 %v\n", k,
			r.AvgCompletion(k),
			r.PercentileCompletion(k, 0.5),
			r.PercentileCompletion(k, 0.95))
	}

	// Per-request JSONL log.
	dir := os.TempDir()
	logPath := filepath.Join(dir, "strings-requests.jsonl")
	f, err := os.Create(logPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.WriteRequestLog(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("\nrequest log (%d events) written to %s; first event:\n", len(r.Requests), logPath)
	first := r.SortedRequests()[0]
	fmt.Printf("  app %d (%s) node %d → GID %d: queued %dus, served %dus\n",
		first.AppID, first.KindID, first.Node, first.GID, first.QueueUS, first.ServiceUS)

	// HTML report with an SVG chart of per-class latency.
	tab := &metrics.Table{
		Title:  "Average completion by class (s)",
		Labels: []string{"HI", "MC"},
	}
	tab.Add("avg", []float64{
		r.AvgCompletion(workload.Histogram).Seconds(),
		r.AvgCompletion(workload.MonteCarlo).Seconds(),
	})
	tab.Add("p95", []float64{
		r.PercentileCompletion(workload.Histogram, 0.95).Seconds(),
		r.PercentileCompletion(workload.MonteCarlo, 0.95).Seconds(),
	})
	page := report.NewPage("Scenario analysis")
	page.AddTable(tab)
	htmlPath := filepath.Join(dir, "strings-analysis.html")
	if err := page.WriteFile(htmlPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTML report written to %s\n", htmlPath)
}
