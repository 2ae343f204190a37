package analysis

import (
	"go/ast"
	"go/types"
)

// Simclock forbids wall-clock time in sim-driven packages.
//
// The whole reproduction rests on runs being bit-exact from a seed
// (TestFig9Golden pins a full Strings run to 12 significant digits), and
// the discrete-event kernel owns the only clock that may influence
// behaviour: sim.Time. A single time.Now() or time.Sleep() in a policy
// makes results depend on the host machine and the scheduler's mood, which
// no example-based test reliably catches. The bench harness legitimately
// measures wall time around whole runs; it carries //lint:allow simclock
// with a reason. The kernel layer gets no exemption: lookahead, horizons
// and mailbox delivery instants are virtual sim.Time, and a wall-clock read
// anywhere in the layer would leak host timing into the merged event order.
var Simclock = &Analyzer{
	Name: "simclock",
	Doc: "forbid time.Now/time.Sleep/wall-clock time.Time in packages that drive " +
		"the simulator; virtual sim.Time is the only clock that may influence behaviour",
	Run: runSimclock,
}

// simclockForbidden are the package-level members of "time" whose use in a
// sim-driven package reads or waits on the wall clock. Pure unit helpers
// (time.Duration, time.Millisecond, ParseDuration, ...) stay legal.
var simclockForbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Time":      true, // the wall-clock carrying type itself
}

func runSimclock(pass *Pass) error {
	if !simDriven(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if !simclockForbidden[obj.Name()] {
				return true
			}
			what := "time." + obj.Name()
			if _, isType := obj.(*types.TypeName); isType {
				pass.Reportf(id.Pos(),
					"%s is wall-clock state in a sim-driven package; carry virtual sim.Time instead (//lint:allow simclock -- <reason> to suppress)", what)
			} else {
				pass.Reportf(id.Pos(),
					"%s reads the wall clock in a sim-driven package; the kernel's virtual clock (sim.Time) is the only clock that may influence behaviour (//lint:allow simclock -- <reason> to suppress)", what)
			}
			return true
		})
	}
	return nil
}
