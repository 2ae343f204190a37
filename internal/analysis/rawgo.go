package analysis

import (
	"go/ast"
)

// Rawgo forbids raw goroutines in sim-driven packages.
//
// A simulation is one goroutine. Simulated processes are coroutines
// (iter.Pull) the kernel resumes one at a time, the virtual clock advances
// only when the running one parks (internal/sim/kernel.go), and a sharded
// run steps its kernels in turn on the same goroutine (internal/sim/shard).
// A raw `go func` in scheduling code runs beside that goroutine, racing the
// kernel on shared state and observing a clock that may advance under it.
// Concurrency inside the simulated world must go through sim.Kernel
// process APIs (Kernel.Go / Proc.Wait / Queue / Signal). Real concurrency
// at the system boundary — a TCP accept loop, an experiment worker pool
// where each worker owns a private kernel — is legitimate and carries a
// //lint:allow rawgo with its justification. The kernel layer itself
// (internal/sim, internal/sim/shard) is checked like everything else: it
// contains no `go` statement and has no reason to grow one.
var Rawgo = &Analyzer{
	Name: "rawgo",
	Doc: "forbid `go` statements in sim-driven packages, the kernel included; " +
		"simulated concurrency must use the kernel's process APIs",
	Run: runRawgo,
}

func runRawgo(pass *Pass) error {
	if !simDriven(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(g.Pos(),
				"raw goroutine in a sim-driven package runs beside the simulation's one goroutine; use sim.Kernel process APIs (Kernel.Go/Proc.Wait), or //lint:allow rawgo -- <reason> for real system-boundary concurrency")
			return true
		})
	}
	return nil
}
