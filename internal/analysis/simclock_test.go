package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestSimclock covers the forbidden wall-clock reads, the time.Time state
// diagnostic, the time.Duration carve-out, and //lint:allow suppression.
func TestSimclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Simclock, "simclock")
}

// TestSimclockCoversShardCoordinator: the kernel layer is sim-driven without
// importing internal/sim — a wall-clock read in the window coordinator would
// leak host timing into the merged event order, so the analyzer fires on
// internal/sim/shard paths.
func TestSimclockCoversShardCoordinator(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Simclock, "shardclock/internal/sim/shard")
}

// TestSimclockSkipsNonSimPackages: a package that does not import
// internal/sim (or a façade) may use the wall clock freely.
func TestSimclockSkipsNonSimPackages(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Simclock, "notsim")
}
