package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestHotalloc covers the in-package contract: the seeded regression in a
// hot-reachable (but unannotated) function, escaping literals, map makes,
// growing appends, interface boxing, escaping closures, fmt calls — and
// the negatives: non-escaping locals, the splice idiom, cold functions,
// and lint:allow suppression.
func TestHotalloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotalloc, "hotalloc")
}

// TestHotallocCrossPackageFacts: the hot function's diagnostics come from
// the dependency's exported alloc facts (including a transitive one), and
// a lint:allow at the allocation source keeps the callee out of the facts
// entirely.
func TestHotallocCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotalloc, "hotallocx")
}

// TestHotallocInterfaceEdges: a hot root calling a method of an interface
// declared in its own package reaches that method's implementations there —
// value and pointer receivers, and what they call in turn — with the root as
// witness; a clean implementation, an implementation of a method no root
// calls, a near-miss type and an uncalled interface draw nothing.
func TestHotallocInterfaceEdges(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotalloc, "hotallociface")
}

// TestHotallocAllowForms: line, trailing-block, own-line, and multi-line
// block lint:allow forms each suppress exactly the line they cover.
func TestHotallocAllowForms(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotalloc, "allowforms")
}
