package analysis

// Allowaudit keeps the suppression inventory honest. A //lint:allow is a
// standing claim that a determinism or protocol rule provably does not
// apply at one site; the claim decays as code moves, so the auditor
// re-checks every directive on every run:
//
//   - unknown analyzer names (typos silently suppress nothing — worse,
//     they LOOK like coverage)
//   - directives without a "-- reason" (the claim must be auditable
//     without git archaeology)
//   - stale directives: the named analyzer ran over the package and the
//     directive suppressed no diagnostic. Dead suppressions are deleted,
//     not kept "just in case" — a stale allow re-armed by a later edit
//     hides a real regression.
//
// Staleness is scoped to the analyzers that actually executed in this
// invocation, so running a subset (an analysistest fixture) never miscalls
// directives for the others stale. The framework runs allowaudit after every other analyzer precisely so
// directive usage is fully accounted before the audit. Audit findings may
// themselves be suppressed with //lint:allow allowaudit for the rare
// directive that is load-bearing only on another build configuration.
var Allowaudit = &Analyzer{
	Name: "allowaudit",
	Doc: "audit //lint:allow hygiene: unknown analyzer names, missing '-- reason' " +
		"justifications, and stale suppressions that no longer mask anything",
}

// Run is attached in init: runAllowaudit consults the full registry via
// All(), which itself lists Allowaudit — a direct field reference would be
// an initialization cycle.
func init() { Allowaudit.Run = runAllowaudit }

func runAllowaudit(pass *Pass) error {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	known["all"] = true

	for _, d := range pass.allows {
		if isTestFile(pass.Fset, d.Pos) {
			continue // analyzers skip test files; their allows are inert
		}
		if len(d.Names) == 0 {
			pass.Reportf(d.Pos, "lint:allow names no analyzer; name one or delete the directive")
			continue
		}
		for _, name := range d.Names {
			if !known[name] {
				pass.Reportf(d.Pos, "lint:allow names unknown analyzer %q (known: stringscheck -doc lists them); typos suppress nothing", name)
				continue
			}
			if name == "all" {
				if allRan(pass) && !anyUsed(d) {
					pass.Reportf(d.Pos, "lint:allow all suppresses no diagnostic from any analyzer; delete the stale directive")
				}
				continue
			}
			if pass.ran[name] && !d.used[name] {
				pass.Reportf(d.Pos, "lint:allow %s suppresses no %s diagnostic here; delete the stale directive", name, name)
			}
		}
		if !d.HasReason {
			pass.Reportf(d.Pos, "lint:allow without a '-- reason'; the suppression must say why the rule does not apply")
		}
	}
	return nil
}

// allRan reports whether every non-audit analyzer executed this run; only
// then can a blanket "all" directive be called stale.
func allRan(pass *Pass) bool {
	for _, a := range All() {
		if a.Name == Allowaudit.Name {
			continue
		}
		if !pass.ran[a.Name] {
			return false
		}
	}
	return true
}

// anyUsed reports whether the directive suppressed anything for any
// analyzer.
func anyUsed(d *AllowDirective) bool {
	return len(d.used) > 0
}
