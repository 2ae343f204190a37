package workload

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// Reference is the device all profiles are calibrated against (the paper's
// Tesla C2050).
var Reference = gpu.TeslaC2050

// Calibration constants.
const (
	// maxXferFrac caps the share of GPU time spent in transfers. Table I
	// reports ~99% for BO and MC; a synchronous-loop application tops out
	// slightly below that once kernels must still run, so the derivation
	// clamps here and lets the measured value land close to the table.
	maxXferFrac = 0.85

	// maxBWDemand caps a kernel's memory-bandwidth demand relative to the
	// device's effective bandwidth.
	maxBWDemand = 0.95

	// h2dShare of transfer time goes host→device; the rest device→host.
	h2dShare = 0.6

	// chunkBytes bounds a single memcpy; larger per-iteration volumes are
	// moved as repeated chunked copies through the same buffer, the way
	// real applications bound their staging buffers.
	chunkBytes = 64 << 20

	// minOcc/maxOcc bound kernel occupancy. Memory-bound kernels stall
	// their warps on loads and cannot fill the compute pipelines, so
	// occupancy falls as bandwidth demand rises.
	minOcc = 0.2
	maxOcc = 0.95
)

// Profile is a fully derived, device-independent execution plan for one
// application: per-iteration CPU time, transfer volumes and kernel work.
type Profile struct {
	Spec

	CPUPerIter sim.Time // host compute between GPU episodes
	H2DPerIter int64    // bytes host→device per iteration
	D2HPerIter int64    // bytes device→host per iteration
	ChunkBytes int64    // maximum bytes per single memcpy call

	KernCompute float64 // compute units per iteration's kernel
	KernTraffic float64 // device-memory traffic (bytes) per kernel
	KernOcc     float64 // kernel occupancy

	BufBytes int64 // device buffer the application allocates
}

// Profiles caches the derived profiles for all kinds.
var profiles [numKinds]Profile

func init() {
	for _, k := range AllKinds {
		profiles[k] = derive(Specs[k], Reference)
	}
}

// ProfileFor returns the calibrated profile of kind k.
func ProfileFor(k Kind) Profile { return profiles[k] }

// derive computes per-iteration parameters from a Table I row against a
// reference device spec.
func derive(s Spec, ref gpu.Spec) Profile {
	p := Profile{Spec: s, ChunkBytes: chunkBytes}
	T := float64(s.SoloRuntime)
	g := s.GPUPct / 100
	x := math.Min(s.XferPct/100, maxXferFrac)

	G := float64(g * T) // GPU time: transfers + kernels
	X := float64(x * G) // transfer time
	K := G - X          // kernel time
	cpu := T - G        // host time
	iters := float64(s.Iters)

	p.CPUPerIter = sim.Time(cpu/iters + 0.5)

	h2dTime := h2dShare * X
	d2hTime := (1 - h2dShare) * X
	p.H2DPerIter = int64(h2dTime*ref.H2DBandwidth/iters + 0.5)
	p.D2HPerIter = int64(d2hTime*ref.D2HBandwidth/iters + 0.5)

	// Kernel memory traffic from the Table I bandwidth (MB/s → bytes/us is
	// a factor of 1: 1 MB/s = 1e6 B / 1e6 us), clamped to what the
	// effective device bandwidth allows within the kernel time.
	traffic := s.MemBWMB * G
	maxTraffic := maxBWDemand * ref.MemBandwidth * K
	if traffic > maxTraffic {
		traffic = maxTraffic
	}
	p.KernTraffic = traffic / iters

	// Bandwidth demand fraction while the kernel runs.
	b := 0.0
	if K > 0 {
		b = traffic / (ref.MemBandwidth * K)
	}
	// Occupancy: memory-bound kernels cannot fill the compute pipelines.
	occ := 1 - float64(0.8*b)
	if occ < minOcc {
		occ = minOcc
	}
	if occ > maxOcc {
		occ = maxOcc
	}
	p.KernOcc = occ

	// Compute work sized so the kernel's solo duration is exactly its share
	// of the kernel time: solo = C/(rate·occ) = K/iters.
	p.KernCompute = occ * ref.ComputeRate * (K / iters)

	// Device buffer: one staging chunk (or the whole per-iteration volume
	// if smaller) plus a small working set.
	buf := p.H2DPerIter
	if p.D2HPerIter > buf {
		buf = p.D2HPerIter
	}
	if buf > chunkBytes {
		buf = chunkBytes
	}
	if buf < 1<<20 {
		buf = 1 << 20
	}
	p.BufBytes = buf
	return p
}
