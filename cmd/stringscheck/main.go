// Command stringscheck enforces the simulator's determinism and protocol
// invariants — the ones no test can observe, or that guard a fault — with
// six analyzers (DESIGN.md "Determinism invariants" and "Static
// analysis"):
//
//	simclock   — no wall-clock time in sim-driven packages
//	detrand    — no process-global math/rand; thread a seeded *rand.Rand
//	maporder   — no map-iteration order leaking into simulator state
//	rawgo      — no raw goroutines in sim-driven packages, the kernel included
//	errflow    — no silently discarded errors on rpcproto/remoting paths
//	allowaudit — //lint:allow hygiene: unknown names, missing reasons,
//	             stale suppressions
//
// It runs one way, like a linter, over the packages it is given:
//
//	stringscheck [-json] [packages]        # default ./...
//	stringscheck -doc
//
// Diagnostics print to stderr as file:line:col: analyzer: message; with
// -json they print to stdout as one sorted JSON array, byte-identical across
// runs of the same tree (CI archives it). Heap allocation on the request
// path, pooled objects used after release and trace spans left open are
// measured at run time, not analysed: see DESIGN.md "Static analysis".
// Suppress a finding with: //lint:allow <analyzer> -- <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

func main() {
	jsonOut := flag.Bool("json", false, "print findings to stdout as one sorted JSON array")
	doc := flag.Bool("doc", false, "describe the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: stringscheck [-json] [packages]   |   stringscheck -doc")
	}
	flag.Parse()
	if *doc {
		printDoc()
		return
	}
	// JSON goes to stdout (it is the product); human-readable diagnostics
	// stay on stderr like go vet.
	out := os.Stderr
	if *jsonOut {
		out = os.Stdout
	}
	os.Exit(driver.Standalone(out, ".", flag.Args(), *jsonOut))
}

func printDoc() {
	fmt.Println("stringscheck enforces simulator determinism and protocol invariants.")
	fmt.Println()
	for _, a := range analysis.All() {
		fmt.Printf("%-10s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("usage: stringscheck [-json] [packages]")
	fmt.Println("suppress: //lint:allow <analyzer>[,<analyzer>] -- <reason>")
}
