// Package workload models the paper's benchmark applications (Table I: six
// long-running CUDA SDK/Rodinia jobs in Group A, four short-running jobs in
// Group B), the 24 A–B workload pairs of the evaluation, and the
// SPECpower-style negative-exponential request arrival process.
//
// Each application is calibrated so that, run alone on the reference device
// (Tesla C2050), its solo runtime, GPU-time fraction, data-transfer fraction
// and kernel memory bandwidth reproduce the characteristics the paper
// reports. An application issues its calls through a cuda.Stepper (Steps)
// exactly as a CUDA SDK sample would: synchronous memcpys and kernel launches
// on the default stream, a device synchronize, and cudaThreadExit — leaving
// all asynchrony for the Strings runtime to recover via interposition.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Kind identifies a benchmark application.
type Kind int

// Table I applications.
const (
	DXTC            Kind = iota // DC: texture compression
	Scan                        // SC: prefix sums
	BinomialOptions             // BO: option pricing
	MatrixMultiply              // MM: dense GEMM
	Histogram                   // HI: 64/256-bin histogram
	Eigenvalues                 // EV: symmetric eigensolver
	BlackScholes                // BS: option pricing (short)
	MonteCarlo                  // MC: Monte Carlo pricing (short)
	Gaussian                    // GA: Gaussian elimination (short)
	SortingNetworks             // SN: bitonic sort (short)
	numKinds
)

// Group is the paper's job-length class.
type Group int

// Job groups: A = long-running (10–55 s), B = short-running (< 10 s).
const (
	GroupA Group = iota
	GroupB
)

// Spec is one row of Table I plus the runtime class parameters we calibrate
// against.
type Spec struct {
	Kind  Kind
	Name  string // full benchmark name
	Short string // two-letter code used in the figures
	Group Group
	Input string // input description from Table I

	// Table I characteristics.
	GPUPct  float64 // "GPU Time (in %)": fraction of runtime spent on GPU ops
	XferPct float64 // "Data Transfer (in %)": share of GPU time in memcpys
	MemBWMB float64 // "Memory Bandwidth (in MB/s)": kernel traffic / GPU time

	// Calibration targets.
	SoloRuntime sim.Time // solo completion time on the reference device
	Iters       int      // GPU episodes (iterations) per run
}

// Specs lists the Table I benchmarks in the paper's order (Group A then
// Group B); the 24 pair labels A..X follow this order.
var Specs = [numKinds]Spec{
	DXTC:            {Kind: DXTC, Name: "DXTC", Short: "DC", Group: GroupA, Input: "512 x 512 pixels", GPUPct: 89.31, XferPct: 0.005, MemBWMB: 63.14, SoloRuntime: 30 * sim.Second, Iters: 30},
	Scan:            {Kind: Scan, Name: "Scan", Short: "SC", Group: GroupA, Input: "1K & 256K elements", GPUPct: 10.73, XferPct: 24.99, MemBWMB: 1193.03, SoloRuntime: 14 * sim.Second, Iters: 20},
	BinomialOptions: {Kind: BinomialOptions, Name: "Binomial options", Short: "BO", Group: GroupA, Input: "1024 points; 2048 steps", GPUPct: 41.06, XferPct: 98.88, MemBWMB: 3764.44, SoloRuntime: 22 * sim.Second, Iters: 25},
	MatrixMultiply:  {Kind: MatrixMultiply, Name: "Matrix multiply", Short: "MM", Group: GroupA, Input: "480 x 480 elements", GPUPct: 80.13, XferPct: 0.01, MemBWMB: 2143.26, SoloRuntime: 40 * sim.Second, Iters: 30},
	Histogram:       {Kind: Histogram, Name: "Histogram", Short: "HI", Group: GroupA, Input: "64-bin & 256-bin", GPUPct: 86.51, XferPct: 0.17, MemBWMB: 13736.33, SoloRuntime: 25 * sim.Second, Iters: 25},
	Eigenvalues:     {Kind: Eigenvalues, Name: "Eigenvalues", Short: "EV", Group: GroupA, Input: "8192 x 8192 elements", GPUPct: 41.92, XferPct: 0.73, MemBWMB: 401.27, SoloRuntime: 50 * sim.Second, Iters: 30},
	BlackScholes:    {Kind: BlackScholes, Name: "Blackscholes", Short: "BS", Group: GroupB, Input: "8000000 points; 1024 steps", GPUPct: 24.51, XferPct: 6.23, MemBWMB: 50.23, SoloRuntime: 6 * sim.Second, Iters: 12},
	MonteCarlo:      {Kind: MonteCarlo, Name: "MonteCarlo", Short: "MC", Group: GroupB, Input: "2048 points", GPUPct: 84.86, XferPct: 98.94, MemBWMB: 3047.32, SoloRuntime: 8 * sim.Second, Iters: 16},
	Gaussian:        {Kind: Gaussian, Name: "Gaussian", Short: "GA", Group: GroupB, Input: "50 x 50 elements", GPUPct: 1.14, XferPct: 0.32, MemBWMB: 17.89, SoloRuntime: 2 * sim.Second, Iters: 8},
	SortingNetworks: {Kind: SortingNetworks, Name: "Sorting Networks", Short: "SN", Group: GroupB, Input: "1M elements", GPUPct: 2.05, XferPct: 26.68, MemBWMB: 320.35, SoloRuntime: 3 * sim.Second, Iters: 10},
}

// String returns the two-letter code.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return Specs[k].Short
}

// GroupAKinds and GroupBKinds list the kinds in each class, in Table I
// order.
var (
	GroupAKinds = []Kind{DXTC, Scan, BinomialOptions, MatrixMultiply, Histogram, Eigenvalues}
	GroupBKinds = []Kind{BlackScholes, MonteCarlo, Gaussian, SortingNetworks}
	AllKinds    = []Kind{DXTC, Scan, BinomialOptions, MatrixMultiply, Histogram, Eigenvalues, BlackScholes, MonteCarlo, Gaussian, SortingNetworks}
)

// Pair is one of the 24 Group A × Group B workload mixes.
type Pair struct {
	Label string // "A".."X"
	Long  Kind   // Group A member
	Short Kind   // Group B member
}

// Pairs returns the paper's 24 workload pairs labelled A..X: A=DC-BS,
// B=DC-MC, ..., X=EV-SN, following Table I order.
func Pairs() []Pair {
	var out []Pair
	label := 'A'
	for _, a := range GroupAKinds {
		for _, b := range GroupBKinds {
			out = append(out, Pair{Label: string(label), Long: a, Short: b})
			label++
		}
	}
	return out
}

// String renders the pair as in the paper's prose, e.g. "A(DC-BS)".
func (p Pair) String() string {
	return fmt.Sprintf("%s(%s-%s)", p.Label, p.Long, p.Short)
}
