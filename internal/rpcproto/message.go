// Package rpcproto defines the wire protocol between the Strings frontend
// (the CUDA interposer library linked into applications) and the backend
// daemons that own the GPUs: call/reply message types, a compact binary
// codec, and transports — a virtual-time transport for simulation and a real
// framed-TCP transport demonstrating GPU remoting over an actual socket.
package rpcproto

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// Call is a marshalled CUDA runtime API invocation (the paper's "RPC packet"
// of Figure 3: call id + parameters).
type Call struct {
	ID  cuda.CallID
	Seq uint64

	// Application identity, carried on registration-relevant calls.
	AppID    int64
	TenantID int64
	Weight   int32

	// Target device: a gPool-global GID after the affinity mapper has
	// resolved the application's cudaSetDevice, a local ordinal at the
	// backend.
	Dev int32

	// Stream-addressed calls.
	Stream int32

	// Event-addressed calls (CallEvent*): Event is the handle, Event2 the
	// second handle of cudaEventElapsedTime.
	Event  int32
	Event2 int32

	// Memory operations.
	Dir     cuda.Dir
	Bytes   int64
	PtrID   int64
	PtrSize int64
	PtrDev  int32

	// Kernel launches.
	KernelName string
	Compute    float64
	MemTraffic float64
	Occupancy  float64

	// NonBlocking marks RPCs the interposer issues asynchronously (calls
	// without output parameters, per the paper's asynchrony optimization).
	NonBlocking bool
}

// Reply is the backend's response to a Call.
type Reply struct {
	Seq uint64

	// Err is the CUDA error string; empty means success.
	Err string

	// Outputs.
	PtrID   int64
	PtrSize int64
	PtrDev  int32
	Stream  int32
	Count   int32
	Event   int32
	Elapsed int64 // microseconds (cudaEventElapsedTime)

	// Feedback is piggybacked on the cudaThreadExit reply (the paper's
	// Feedback Engine path to the Scheduler Feedback Table). A sender or a
	// decoder points it at fb (AttachFeedback), so the report travels in
	// the pooled frame.
	Feedback *Feedback
	fb       Feedback
}

// AttachFeedback points Feedback at the frame's own zeroed report and
// returns it for the caller to fill. It is valid as long as the frame.
func (r *Reply) AttachFeedback() *Feedback {
	r.fb = Feedback{}
	r.Feedback = &r.fb
	return r.Feedback
}

// Feedback carries the Request Monitor's per-application characteristics
// from a device-level scheduler to the GPU Affinity Mapper.
type Feedback struct {
	AppID    int64
	Kind     string   // application class name (SFT key)
	GID      int32    // device the application ran on
	ExecTime sim.Time // wall time from registration to exit
	GPUTime  sim.Time // attained GPU service
	XferTime sim.Time // time on the copy engines
	MemBW    float64  // bytes/us of device-memory traffic while on GPU
	GPUUtil  float64  // GPUTime / ExecTime
}

// Err converts a Reply error string back into an error, mapping the
// well-known CUDA error strings onto the cuda package's sentinel errors so
// errors.Is works across the RPC boundary.
func (r *Reply) AsError() error {
	if r.Err == "" {
		return nil
	}
	for _, e := range []error{
		cuda.ErrInvalidDevice, cuda.ErrMemoryAllocation, cuda.ErrInvalidValue,
		cuda.ErrInvalidPtr, cuda.ErrInvalidStream, cuda.ErrThreadExited,
		cuda.ErrNotImplemented, cuda.ErrBackendUnreachable, cuda.ErrBackendLost,
		cuda.ErrInvalidEvent, cuda.ErrNotReady,
	} {
		if r.Err == e.Error() {
			return e
		}
	}
	return fmt.Errorf("rpc: %s", r.Err)
}

// SetError stores err in the reply.
func (r *Reply) SetError(err error) {
	if err == nil {
		r.Err = ""
		return
	}
	r.Err = err.Error()
}

// SetOp writes op, its opcode and operands, into the frame: how the
// interposer marshals a call. Identity, sequence and blocking are the
// sender's to stamp.
func (c *Call) SetOp(op *cuda.Op) {
	c.ID, c.Dev, c.Dir, c.Bytes = op.ID, int32(op.Dev), op.Dir, op.Bytes
	c.PtrID, c.PtrSize, c.PtrDev = op.Ptr.ID, op.Ptr.Size, int32(op.Ptr.Dev)
	c.Stream, c.Event, c.Event2 = int32(op.Stream), int32(op.Event), int32(op.Event2)
	k := &op.Kernel
	c.KernelName, c.Compute, c.MemTraffic, c.Occupancy = k.Name, k.Compute, k.MemTraffic, k.Occupancy
}

// Op is the op SetOp wrote: how Execute unmarshals a call.
func (c *Call) Op() cuda.Op {
	return cuda.Op{ID: c.ID, Dev: int(c.Dev), Dir: c.Dir, Bytes: c.Bytes,
		Ptr:    cuda.Ptr{Dev: int(c.PtrDev), ID: c.PtrID, Size: c.PtrSize},
		Kernel: cuda.Kernel{Name: c.KernelName, Compute: c.Compute, MemTraffic: c.MemTraffic, Occupancy: c.Occupancy},
		Stream: cuda.StreamID(c.Stream), Event: cuda.EventID(c.Event), Event2: cuda.EventID(c.Event2)}
}

// SetRet writes a call's outcome, what it returned and its error, into the
// reply: how Execute answers.
func (r *Reply) SetRet(ret cuda.Ret, err error) {
	r.PtrID, r.PtrSize, r.PtrDev = ret.Ptr.ID, ret.Ptr.Size, int32(ret.Ptr.Dev)
	r.Stream, r.Event, r.Count = int32(ret.Stream), int32(ret.Event), int32(ret.Count)
	r.Elapsed = int64(ret.Elapsed)
	r.SetError(err)
}

// PayloadBytes returns the bulk data size a call ships over the wire beyond
// the header: H2D copies carry the host buffer with the request.
func (c *Call) PayloadBytes() int64 {
	if c.ID == cuda.CallMemcpy || c.ID == cuda.CallMemcpyAsync {
		if c.Dir == cuda.H2D {
			return c.Bytes
		}
	}
	return 0
}

// ReplyPayloadBytes returns the bulk data size the reply to c carries back:
// D2H copies return the device buffer with the response.
func (c *Call) ReplyPayloadBytes() int64 {
	if c.ID == cuda.CallMemcpy && c.Dir == cuda.D2H {
		return c.Bytes
	}
	return 0
}

// String renders the call for traces.
func (c *Call) String() string {
	return fmt.Sprintf("%v{seq=%d app=%d dev=%d stream=%d}", c.ID, c.Seq, c.AppID, c.Dev, c.Stream)
}
