// Command stringscheck enforces the simulator's determinism, protocol, and
// hot-path invariants (DESIGN.md "Determinism invariants" and "Dataflow
// analysis and the hot-path contract") with nine analyzers:
//
//	simclock   — no wall-clock time in sim-driven packages
//	detrand    — no process-global math/rand; thread a seeded *rand.Rand
//	maporder   — no map-iteration order leaking into simulator state
//	rawgo      — no raw goroutines in sim-driven packages, the kernel included
//	errflow    — no silently discarded errors on rpcproto/remoting paths
//	hotalloc   — no unjustified heap allocation reachable from a
//	             //strings:hotpath root (cross-package via exported facts)
//	poolsafe   — no use-after-release / double-release of pooled objects;
//	             pool-return methods must zero before storing
//	spanpair   — every trace span Begin reaches an End on all CFG exits
//	allowaudit — //lint:allow hygiene: unknown names, missing reasons,
//	             stale suppressions
//
// It runs two ways:
//
//	stringscheck [-json] ./...             # standalone, like a linter
//	go vet -vettool=$(which stringscheck) ./...   # as a vet unit checker
//
// In vettool mode cmd/go invokes the binary once per package with a
// vet.cfg file (plus -V=full and -flags probes, answered below); the
// per-package .vetx files carry the cross-package hot/alloc facts.
// With -json, diagnostics print to stdout as one sorted JSON array,
// byte-identical across runs of the same tree (CI archives it).
// Suppress a finding with: //lint:allow <analyzer> -- <reason>
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

func main() {
	args := os.Args[1:]
	jsonOut := false
	patterns := args[:0:0]
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-V"):
			printVersion()
			return
		case a == "-flags":
			// cmd/go probes for analyzer flags; the suite has none.
			fmt.Println("[]")
			return
		case a == "-doc", a == "--doc", a == "-help", a == "--help", a == "-h":
			printDoc()
			return
		case a == "-json", a == "--json":
			jsonOut = true
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 1 && strings.HasSuffix(patterns[0], ".cfg") {
		os.Exit(driver.VetTool(os.Stderr, patterns[0]))
	}
	// JSON goes to stdout (it is the product); human-readable diagnostics
	// stay on stderr like go vet.
	if jsonOut {
		os.Exit(driver.Standalone(os.Stdout, ".", patterns, true))
	}
	os.Exit(driver.Standalone(os.Stderr, ".", patterns, false))
}

// printVersion answers cmd/go's -V=full probe. The output doubles as the
// tool's build ID for go vet's action cache, so it must change whenever
// the binary does: hash the executable itself.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", filepath.Base(os.Args[0]), h.Sum(nil))
}

func printDoc() {
	fmt.Println("stringscheck enforces simulator determinism, protocol, and hot-path invariants.")
	fmt.Println()
	for _, a := range analysis.All() {
		fmt.Printf("%-10s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("usage: stringscheck [-json] [packages]   |   go vet -vettool=$(which stringscheck) [packages]")
	fmt.Println("suppress: //lint:allow <analyzer>[,<analyzer>] -- <reason>")
}
