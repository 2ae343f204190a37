// Package cuda simulates the CUDA runtime library over the gpu device model.
//
// Applications program against the Client interface — a faithful subset of
// the CUDA runtime API surface the paper's interposer intercepts
// (cudaSetDevice, cudaMalloc, cudaMemcpy[Async], kernel launch,
// cudaDeviceSynchronize, cudaStream*, cudaThreadExit). A Runtime instance
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

// Client is the per-application-thread view of a CUDA runtime. The bare
// runtime implements it directly; the Strings interposer implements it by
// forwarding calls to backend daemons.
type Client interface {
	// SetDevice selects the target device for subsequent calls
	// (cudaSetDevice).
	SetDevice(dev int) error
	// DeviceCount returns the number of visible devices
	// (cudaGetDeviceCount).
	DeviceCount() int
	// Malloc allocates device memory (cudaMalloc).
	Malloc(bytes int64) (Ptr, error)
	// Free releases device memory (cudaFree).
	Free(p Ptr) error
	// Memcpy is a synchronous host↔device copy (cudaMemcpy); it blocks the
	// calling thread until the copy completes.
	Memcpy(dir Dir, p Ptr, bytes int64) error
	// MemcpyAsync is the stream-ordered asynchronous copy
	// (cudaMemcpyAsync).
	MemcpyAsync(dir Dir, p Ptr, bytes int64, s StreamID) error
	// Launch enqueues a kernel on a stream (cudaConfigureCall+cudaLaunch).
	// Launches are asynchronous, as in CUDA.
	Launch(k Kernel, s StreamID) error
	// StreamCreate creates a stream (cudaStreamCreate).
	StreamCreate() (StreamID, error)
	// StreamSynchronize blocks until all work queued on the stream has
	// completed (cudaStreamSynchronize).
	StreamSynchronize(s StreamID) error
	// StreamDestroy destroys a stream (cudaStreamDestroy).
	StreamDestroy(s StreamID) error
	// DeviceSynchronize blocks until all of the process's work on the
	// current device has completed (cudaDeviceSynchronize).
	DeviceSynchronize() error
	// EventCreate creates a timing event (cudaEventCreate).
	EventCreate() (EventID, error)
	// EventRecord enqueues the event as a marker on the stream
	// (cudaEventRecord); the event's timestamp is when the device reaches
	// it.
	EventRecord(e EventID, s StreamID) error
	// EventSynchronize blocks until the event's marker has completed
	// (cudaEventSynchronize).
	EventSynchronize(e EventID) error
	// EventElapsed returns the device time between two completed events
	// (cudaEventElapsedTime).
	EventElapsed(start, end EventID) (sim.Time, error)
	// EventDestroy releases the event (cudaEventDestroy).
	EventDestroy(e EventID) error
	// ThreadExit tears down the calling thread's CUDA state
	// (cudaThreadExit): outstanding work is synchronized and the thread's
	// allocations are released.
	ThreadExit() error
	// Proc returns the simulated process executing this thread, giving
	// applications access to the virtual clock for their CPU phases.
	Proc() *sim.Proc
}

// Op is one call with its arguments: those of a sync application's fixed
// sequence — cudaSetDevice, cudaMalloc, cudaMemcpy[Async], a launch,
// cudaDeviceSynchronize, cudaFree, cudaThreadExit.
type Op struct {
	ID     CallID
	Dev    int
	Dir    Dir
	Ptr    Ptr
	Bytes  int64
	Kernel Kernel
	Stream StreamID
}

// Stepper is a Client driven from a daemon's steps instead of a process:
// Issue makes the call without blocking, and Await drives it to its end,
// reporting false each time it ended d's step in a wait and true once the
// call is over. Result is then the call's outcome: its error and, for Malloc,
// the pointer.
type Stepper interface {
	Issue(op *Op)
	Await(d *sim.Daemon) bool
	Result() (Ptr, error)
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
