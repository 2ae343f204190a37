package gpu

import (
	"fmt"

	"repro/internal/sim"
)

// OpKind enumerates the work a device executes.
type OpKind int

// Op kinds, in the paper's phase vocabulary: H2D/D2H memcpy and kernel
// launch (KL).
const (
	OpH2D OpKind = iota
	OpD2H
	OpKernel
	// OpMarker is a zero-cost stream marker: it completes the instant it
	// reaches the head of its stream on the resident context. CUDA events
	// are built on it.
	OpMarker
)

// String returns the phase mnemonic used throughout the paper.
func (k OpKind) String() string {
	switch k {
	case OpH2D:
		return "H2D"
	case OpD2H:
		return "D2H"
	case OpKernel:
		return "KL"
	case OpMarker:
		return "MARK"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one unit of device work, issued on a (context, stream) pair. Copies
// carry Bytes; kernels carry Compute work, MemTraffic and Occupancy.
type Op struct {
	Kind OpKind

	// Bytes is the copy size for OpH2D/OpD2H.
	Bytes int64

	// Compute is the kernel's total compute work in compute units.
	Compute float64

	// MemTraffic is the kernel's total device-memory traffic in bytes.
	MemTraffic float64

	// Occupancy in (0,1] is the fraction of the device's compute throughput
	// the kernel can use when running alone. Under-occupying kernels
	// space-share with each other without mutual slowdown.
	Occupancy float64

	// AppID attributes the op to an application for service accounting.
	AppID int

	// Done fires when the op completes. Allocated by Device.Submit if nil.
	Done *sim.Event

	// Timing, filled in by the device.
	Enqueued  sim.Time
	Started   sim.Time
	Finished  sim.Time
	SoloTime  sim.Time // duration the op would take on an idle device
	stream    *Stream
	acct      *AppAcct // AppID's record, from dispatch on
	remaining float64  // normalized remaining work in [0,1] (kernels)
	demandCPU float64  // compute demand fraction while running
	demandBW  float64  // bandwidth demand fraction while running
	soloDur   float64  // solo duration in microseconds (float)
	running   bool
	pooled    bool // drawn from the device free list; recycled on completion
}

// kernelDemands computes the solo duration and resource-demand fractions of a
// kernel on the given spec.
func (o *Op) kernelDemands(spec *Spec) {
	occ := o.Occupancy
	if occ <= 0 || occ > 1 {
		occ = 1
	}
	ct := o.Compute / (spec.ComputeRate * occ) // solo compute time, us
	bt := o.MemTraffic / spec.MemBandwidth     // solo bandwidth time, us
	d := ct
	if bt > d {
		d = bt
	}
	if d <= 0 {
		d = 1 // floor: a kernel costs at least a microsecond
	}
	d += float64(spec.KernelLatency)
	o.soloDur = d
	// Demand fractions: what share of the whole device's compute throughput
	// and memory bandwidth this kernel consumes while it progresses at its
	// solo rate. Occupancy cancels out of the compute demand: a kernel that
	// can only fill 10% of the SMs runs 10× longer but loads the device 10×
	// less at any instant.
	o.demandCPU = (o.Compute / spec.ComputeRate) / d
	o.demandBW = (o.MemTraffic / spec.MemBandwidth) / d
	o.remaining = 1
}

// copyDuration returns the solo duration of a copy op on the given spec.
func (o *Op) copyDuration(spec *Spec) sim.Time {
	bw := spec.H2DBandwidth
	if o.Kind == OpD2H {
		bw = spec.D2HBandwidth
	}
	d := spec.CopyLatency + sim.Time(float64(o.Bytes)/bw+0.5)
	if d <= 0 {
		d = 1
	}
	return d
}
