package workload

import (
	"repro/internal/cuda"
	"repro/internal/sim"
)

// Style selects how an application issues its GPU work.
type Style int

// Application styles.
const (
	// StyleSync is the CUDA SDK default: synchronous memcpys and implicit
	// ordering on the default stream. The Strings runtime recovers the
	// asynchrony via interposition.
	StyleSync Style = iota
	// StylePipelined is a hand-optimized application: double-buffered
	// explicit streams with asynchronous copies, overlapping its own CPU,
	// transfer and kernel phases without any runtime help.
	StylePipelined
	// StyleMultiThread splits the iterations across two host threads of
	// one process, exercising the interposer's per-device buffer
	// synchronization (cross-thread RPC ordering).
	StyleMultiThread
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StylePipelined:
		return "pipelined"
	case StyleMultiThread:
		return "multithread"
	default:
		return "sync"
	}
}

// App is one executable application instance (one end-user request in the
// cloud service model).
type App struct {
	Profile Profile
	Style   Style
	ID      int   // unique application/request id
	Tenant  int64 // owning tenant
	Weight  int   // tenant weight (TFS)

	// PreferredDev is the device the application would program statically
	// (cudaSetDevice target); the CUDA-runtime baseline honours it, Strings
	// overrides it.
	PreferredDev int

	// Timing, filled by its run (Steps).
	Submitted sim.Time // arrival at the node
	Started   sim.Time // first instruction
	Finished  sim.Time // completion
}

// kernel is the application's per-iteration kernel launch.
func (a *App) kernel() cuda.Kernel {
	return cuda.Kernel{
		Name:       a.Profile.Name,
		Compute:    a.Profile.KernCompute,
		MemTraffic: a.Profile.KernTraffic,
		Occupancy:  a.Profile.KernOcc,
	}
}
