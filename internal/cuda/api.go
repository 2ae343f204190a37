// Package cuda simulates the CUDA runtime library over the gpu device model.
//
// A Thread's methods are a faithful subset of the CUDA runtime API surface
// the paper's interposer intercepts (cudaSetDevice, cudaMalloc,
// cudaMemcpy[Async], kernel launch, cudaDeviceSynchronize, cudaStream*,
// cudaEvent*, cudaThreadExit). An Op is one such call with its arguments, and
// Thread.Issue is the one place an Op's opcode becomes a method call:
// applications issue Ops through a Stepper, and the backends' executor
// (rpcproto.Execute) issues a marshalled frame's. A Runtime instance
// corresponds to one host process: threads of the same Runtime share one GPU
// context per device (CUDA ≥ 4.0 semantics), while distinct Runtimes get
// distinct contexts that the device driver multiplexes with context-switch
// overhead.
package cuda

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Dir is a memcpy direction.
type Dir int

// Memcpy directions.
const (
	H2D Dir = iota
	D2H
)

// String returns the CUDA-style mnemonic.
func (d Dir) String() string {
	if d == H2D {
		return "HostToDevice"
	}
	return "DeviceToHost"
}

// StreamID names a CUDA stream within a process's context on a device.
// DefaultStream (0) is the context's default stream.
type StreamID int

// DefaultStream is CUDA's stream 0.
const DefaultStream StreamID = 0

// EventID names a CUDA event within a process's context on a device.
type EventID int

// Ptr is a device memory pointer.
type Ptr struct {
	Dev  int   // device ordinal within the owning process's view
	ID   int64 // opaque allocation id
	Size int64 // allocation size in bytes
}

// Kernel describes a kernel launch: total compute work (units), device
// memory traffic (bytes), and occupancy (fraction of the device the kernel
// can fill; 0 means 1.0).
type Kernel struct {
	Name       string
	Compute    float64
	MemTraffic float64
	Occupancy  float64
}

// Errors mirroring the CUDA error codes the paper's runtime can surface.
var (
	ErrInvalidDevice      = errors.New("cuda: invalid device ordinal")
	ErrMemoryAllocation   = errors.New("cuda: out of memory")
	ErrInvalidValue       = errors.New("cuda: invalid value")
	ErrInvalidPtr         = errors.New("cuda: invalid device pointer")
	ErrInvalidStream      = errors.New("cuda: invalid resource handle")
	ErrInvalidEvent       = errors.New("cuda: invalid event handle")
	ErrNotReady           = errors.New("cuda: event not yet recorded")
	ErrThreadExited       = errors.New("cuda: thread already exited")
	ErrNotImplemented     = errors.New("cuda: call not implemented")
	ErrBackendUnreachable = errors.New("cuda: backend unreachable")
	// ErrBackendLost reports that the backend serving the application died
	// mid-flight and the call could not be retried or failed over safely.
	ErrBackendLost = errors.New("cuda: backend lost")
)

// Op is one call of the runtime API with its arguments.
type Op struct {
	ID     CallID
	Dev    int
	Dir    Dir
	Ptr    Ptr
	Bytes  int64
	Kernel Kernel
	Stream StreamID
	Event  EventID
	Event2 EventID // an elapsed-time query's end event
}

// Ret is what a call returns besides its error: the pointer cudaMalloc
// allocates, the stream or event a create makes, the time
// cudaEventElapsedTime measures, the count cudaGetDeviceCount reports.
type Ret struct {
	Ptr     Ptr
	Stream  StreamID
	Event   EventID
	Elapsed sim.Time
	Count   int
}

// Stepper is an application thread's view of a CUDA runtime, driven from a
// daemon's steps: Issue makes the call without blocking, and Await drives it
// to its end, reporting false each time it ended d's step in a wait and true
// once the call is over. Result is then the call's outcome. The op is the
// caller's, and stays as it is, until Await reports the call over. The bare
// runtime's Thread implements it directly; the Strings interposer by
// forwarding calls to backend daemons.
type Stepper interface {
	Issue(op *Op)
	Await(d *sim.Daemon) bool
	Result() (Ret, error)
}

// CallID identifies an API call for marshalling and statistics; the values
// form the wire protocol's opcode space.
type CallID int

// API opcodes.
const (
	CallSetDevice CallID = iota + 1
	CallDeviceCount
	CallMalloc
	CallFree
	CallMemcpy
	CallMemcpyAsync
	CallLaunch
	CallStreamCreate
	CallStreamSync
	CallStreamDestroy
	CallDeviceSync
	CallThreadExit
	CallEventCreate
	CallEventRecord
	CallEventSync
	CallEventElapsed
	CallEventDestroy
)

var callNames = map[CallID]string{
	CallSetDevice:     "cudaSetDevice",
	CallDeviceCount:   "cudaGetDeviceCount",
	CallMalloc:        "cudaMalloc",
	CallFree:          "cudaFree",
	CallMemcpy:        "cudaMemcpy",
	CallMemcpyAsync:   "cudaMemcpyAsync",
	CallLaunch:        "cudaLaunch",
	CallStreamCreate:  "cudaStreamCreate",
	CallStreamSync:    "cudaStreamSynchronize",
	CallStreamDestroy: "cudaStreamDestroy",
	CallDeviceSync:    "cudaDeviceSynchronize",
	CallThreadExit:    "cudaThreadExit",
	CallEventCreate:   "cudaEventCreate",
	CallEventRecord:   "cudaEventRecord",
	CallEventSync:     "cudaEventSynchronize",
	CallEventElapsed:  "cudaEventElapsedTime",
	CallEventDestroy:  "cudaEventDestroy",
}

// String returns the CUDA runtime function name.
func (c CallID) String() string {
	if n, ok := callNames[c]; ok {
		return n
	}
	return fmt.Sprintf("CallID(%d)", int(c))
}

// Config sets the runtime's host-side overheads.
type Config struct {
	// APIOverhead is the CPU cost charged to the calling thread per API
	// call (library dispatch, argument checking).
	APIOverhead sim.Time
	// MallocLatency is the extra host-side latency of cudaMalloc/cudaFree.
	MallocLatency sim.Time
	// ContextCreate is the one-time cost of initializing a process's
	// context on a device, paid by the first call that touches the device.
	ContextCreate sim.Time

	// BlockOnOOM enables memory-pressure admission control: cudaMalloc
	// blocks until device memory frees instead of failing. Off by default
	// (the paper's λ assumption); the Strings runtime can enable it to
	// drop that assumption.
	BlockOnOOM bool
}

// DefaultConfig returns overheads representative of CUDA 5.0 on the paper's
// testbed.
func DefaultConfig() Config {
	return Config{
		APIOverhead:   2 * sim.Microsecond,
		MallocLatency: 60 * sim.Microsecond,
		ContextCreate: 4 * sim.Millisecond,
	}
}
