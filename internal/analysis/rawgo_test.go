package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestRawgo covers raw `go` statements (named and literal), the kernel
// process-API alternative, and //lint:allow suppression.
func TestRawgo(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "rawgo")
}

// TestRawgoCoversKernel: internal/sim runs processes as coroutines on the
// caller's goroutine; a `go` statement in it is flagged like anywhere else.
func TestRawgoCoversKernel(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "repro/internal/sim")
}

// TestRawgoCoversShardCoordinator: internal/sim/shard steps its kernels in
// turn on one goroutine; a worker goroutine per kernel is flagged.
func TestRawgoCoversShardCoordinator(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "repro/internal/sim/shard")
}

// TestRawgoSkipsNonSimPackages: goroutines outside the sim-driven domain
// are not checked.
func TestRawgoSkipsNonSimPackages(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "notsim")
}
