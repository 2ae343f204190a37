// Package stringsched is the public API of the Strings reproduction: a
// deterministic, simulation-backed implementation of "Scheduling
// Multi-tenant Cloud Workloads on Accelerator-based Systems" (SC'14).
//
// The package exposes three layers:
//
//   - Cluster construction and execution (NewCluster, Cluster.Run): build a
//     multi-node GPU server, pick a runtime (bare CUDA, Rain, or Strings),
//     a workload-balancing policy and a device-level scheduling policy, and
//     drive request streams through it on a virtual clock.
//
//   - Workloads (Benchmarks, Profile, StreamSpec): the paper's Table I
//     applications, calibrated against the Tesla C2050 reference device,
//     plus the SPECpower-style negative-exponential arrival model.
//
//   - Experiments (NewSuite and the Fig*/TableI/Ablation* methods):
//     regenerate every table and figure of the paper's evaluation.
//
// Everything runs in virtual time: experiments spanning tens of simulated
// minutes complete in milliseconds, and identical seeds give bit-identical
// results.
package stringsched

import (
	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported core types: cluster construction and execution.
type (
	// Config describes a deployment: nodes, runtime mode and policies.
	Config = core.Config
	// NodeConfig lists one node's GPUs.
	NodeConfig = core.NodeConfig
	// Mode selects the runtime serving GPU work.
	Mode = core.Mode
	// Cluster is a wired deployment ready to run request streams.
	Cluster = core.Cluster
	// RunResult aggregates an experiment run.
	RunResult = core.RunResult
	// ShardStats reports the shard coordinator's window counters
	// (see Cluster.ShardStats; zero-valued when the run did not shard).
	ShardStats = shard.Stats
	// DeviceSpec describes a GPU's capabilities.
	DeviceSpec = gpu.Spec
)

// Runtime modes.
const (
	// ModeCUDA is static provisioning on the bare CUDA runtime.
	ModeCUDA = core.ModeCUDA
	// ModeRain is the authors' prior scheduler (one backend process per
	// application).
	ModeRain = core.ModeRain
	// ModeStrings is the paper's system (context packing + two-level
	// scheduling).
	ModeStrings = core.ModeStrings
)

// The paper's testbed devices.
var (
	Quadro2000 = gpu.Quadro2000
	Quadro4000 = gpu.Quadro4000
	TeslaC2050 = gpu.TeslaC2050
	TeslaC2070 = gpu.TeslaC2070
)

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) (*Cluster, error) { return core.New(cfg) }

// MIG-style device partitioning: a DeviceSpec carrying slice profiles (see
// DeviceSpec.WithMIG) can be carved into isolated slices, and StreamSpecs
// naming a SliceProfile get their tenant a dedicated slice instead of a
// share of a whole device.
type (
	// SliceProfile is one allowed slice shape (name, compute sevenths,
	// dedicated memory).
	SliceProfile = gpu.SliceProfile
	// Partition is the carve/release ledger of one partitionable device.
	Partition = gpu.Partition
)

// SliceFractions is the compute-fraction denominator of slice profiles:
// shapes are sized in sevenths of the parent device, as MIG does.
const SliceFractions = gpu.SliceFractions

// MIGProfiles returns the standard 1g..7g slice-profile table for a device
// with the given memory capacity.
func MIGProfiles(memBytes int64) []SliceProfile { return gpu.MIGProfiles(memBytes) }

// GID is a gPool-global GPU identifier.
type GID = balancer.GID

// Workload types.
type (
	// Kind identifies a Table I benchmark.
	Kind = workload.Kind
	// Profile is a calibrated application execution plan.
	Profile = workload.Profile
	// StreamSpec describes one stream of end-user requests.
	StreamSpec = workload.StreamSpec
	// Pair is one of the paper's 24 Group A × Group B mixes.
	Pair = workload.Pair
)

// Table I benchmarks.
const (
	DXTC            = workload.DXTC
	Scan            = workload.Scan
	BinomialOptions = workload.BinomialOptions
	MatrixMultiply  = workload.MatrixMultiply
	Histogram       = workload.Histogram
	Eigenvalues     = workload.Eigenvalues
	BlackScholes    = workload.BlackScholes
	MonteCarlo      = workload.MonteCarlo
	Gaussian        = workload.Gaussian
	SortingNetworks = workload.SortingNetworks
)

// Pairs returns the 24 workload pairs A..X.
func Pairs() []Pair { return workload.Pairs() }

// Style selects how an application issues its GPU work.
type Style = workload.Style

// Application styles: the CUDA-SDK synchronous default, and a hand-tuned
// double-buffered pipeline over explicit streams.
const (
	StyleSync        = workload.StyleSync
	StylePipelined   = workload.StylePipelined
	StyleMultiThread = workload.StyleMultiThread
)

// ProfileFor returns the calibrated profile of a benchmark.
func ProfileFor(k Kind) Profile { return workload.ProfileFor(k) }

// BalancingPolicies lists the workload-balancing policy names accepted by
// Config.Balance, in the paper's order. Config.Balance additionally accepts
// "Frag", the fragmentation-gradient slice-placement policy (it behaves as
// GMin for whole-device requests, so it is omitted from the paper's list).
func BalancingPolicies() []string { return balancer.Names() }

// DevicePolicies lists the device-level scheduling policy names accepted by
// Config.DevPolicy.
func DevicePolicies() []string { return []string{"none", "TFS", "LAS", "PS"} }

// Time is virtual time in microseconds.
type Time = sim.Time

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Metrics.

// WeightedSpeedup is the paper's equation (2).
func WeightedSpeedup(alone, shared []Time) float64 {
	return metrics.WeightedSpeedup(alone, shared)
}

// JainFairness is the paper's equation (3).
func JainFairness(x []float64) float64 { return metrics.JainFairness(x) }

// Table is a printable figure: labels × named series.
type Table = metrics.Table

// Experiments.
type (
	// Suite regenerates the paper's tables and figures.
	Suite = experiments.Suite
	// SuiteOptions scales the experiment suite.
	SuiteOptions = experiments.Options
	// Fig2Result carries Figure 2's utilization timelines.
	Fig2Result = experiments.Fig2Result
)

// NewSuite creates an experiment suite.
func NewSuite(opt SuiteOptions) *Suite { return experiments.NewSuite(opt) }

// SchedulerConfig tunes the device-level scheduler.
type SchedulerConfig = devsched.Config

// Reporting.

// ReportPage assembles tables and text blocks into a standalone HTML report
// with inline SVG charts.
type ReportPage = report.Page

// NewReportPage creates an HTML report page.
func NewReportPage(title string) *ReportPage { return report.NewPage(title) }

// BarChartSVG renders a table as a grouped-bar SVG fragment.
func BarChartSVG(t *Table) string { return report.BarChart(t, report.ChartOptions{}) }

// RequestEvent is one row of a run's request log.
type RequestEvent = core.RequestEvent

// Fault tolerance.

// Fault-injection types, usable through Config.Faults: a FaultPlan lists
// virtual-time faults (kill a node or GPU, stall or degrade a device) that
// the cluster applies during the run.
type (
	// FaultPlan schedules deterministic faults on the virtual clock.
	FaultPlan = faults.Plan
	// Fault is one scheduled fault.
	Fault = faults.Fault
	// FaultKind selects what a fault does.
	FaultKind = faults.Kind
)

// Fault kinds.
const (
	// KillNode permanently kills every GPU backend on one node.
	KillNode = faults.KillNode
	// KillGPU permanently kills one GPU backend.
	KillGPU = faults.KillGPU
	// StallGPU freezes one backend for a duration, then resumes it.
	StallGPU = faults.StallGPU
	// DegradeGPU multiplies one backend's service times from then on.
	DegradeGPU = faults.DegradeGPU
)

// Recovery configures the interposer's failure detector and retry/failover
// machinery, usable through Config.Recovery. The zero value disables it.
type Recovery = interpose.Recovery

// Health is a gPool device's failure-detector state (Healthy, Suspect or
// Dead), as reported in device status tables.
type Health = balancer.Health

// Health states.
const (
	// Healthy devices receive new work.
	Healthy = balancer.Healthy
	// Suspect devices have missed calls but are not yet declared dead.
	Suspect = balancer.Suspect
	// Dead devices are skipped by placement and never return.
	Dead = balancer.Dead
)

// ErrBackendLost is returned by CUDA calls whose backend failed and could
// not be recovered; affected requests count as Lost, not as errors.
var ErrBackendLost = cuda.ErrBackendLost

// Observability.

// Tracing types, usable through Config.Recorder: a TraceRecorder collects
// virtual-time spans, events and decision-audit records across the request
// path; a TraceSet is its exportable snapshot (Chrome trace JSON, JSONL,
// text timelines).
type (
	// TraceRecorder records spans/events/decisions for one run.
	TraceRecorder = trace.Recorder
	// TraceSet is a recorder snapshot ready for export.
	TraceSet = trace.Set
	// TraceSpan is one virtual-time interval.
	TraceSpan = trace.Span
	// TraceDecision is one decision-audit record.
	TraceDecision = trace.Decision
)

// NewTraceRecorder returns an enabled trace recorder for Config.Recorder.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// InstrumentRegistry is a named collection of counters and histograms.
type InstrumentRegistry = metrics.Registry
