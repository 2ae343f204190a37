package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestAllowaudit runs simclock and the auditor together, so directive
// usage is real: a working suppression passes, a working one without a
// reason is flagged, an idle one is stale, a typoed name and the name of a
// deleted analyzer are unknown, and directives for analyzers that did not
// run are left alone.
func TestAllowaudit(t *testing.T) {
	analysistest.RunSuite(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.Simclock, analysis.Allowaudit}, "allowaudit")
}

// TestAllowForms: line, trailing-block, own-line, and multi-line block
// lint:allow forms each suppress exactly the line they cover.
func TestAllowForms(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Simclock, "allowforms")
}
