// Package devsched implements the paper's per-device GPU Scheduler: the
// Request Manager with its Request Control Block (RCB), the Dispatcher that
// puts backend threads to sleep and wakes them (the simulation analogue of
// the paper's Unix real-time-signal protocol), the Request Monitor that
// tracks per-application GPU characteristics, and the Feedback Engine that
// reports them to the workload balancer. Scheduling policies: TFS (true
// fair-share with usage history and overshoot penalties), LAS (least
// attained service with exponentially decayed accounting, eq. 1 of the
// paper), and PS (phase selection across the GPU's three engines).
package devsched

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Phase is a backend thread's current GPU-usage phase, as reported to the
// scheduler; PS picks one thread per phase.
type Phase int

// Phases in the paper's vocabulary: kernel launch, the two copy directions,
// the default phase (anything else), and idle (no pending request).
const (
	PhaseIdle Phase = iota
	PhaseDFL
	PhaseH2D
	PhaseD2H
	PhaseKL
)

// String returns the paper's phase mnemonic.
func (ph Phase) String() string {
	switch ph {
	case PhaseIdle:
		return "IDLE"
	case PhaseDFL:
		return "DFL"
	case PhaseH2D:
		return "H2D"
	case PhaseD2H:
		return "D2H"
	case PhaseKL:
		return "KL"
	default:
		return fmt.Sprintf("Phase(%d)", int(ph))
	}
}

// Entry is one application's row in the Request Control Block. Its storage
// belongs to the backend thread that registers it (Scheduler.Register), which
// may reuse it for its next application once Unregister has returned.
type Entry struct {
	AppID    int
	TenantID int64
	Weight   int
	Kind     string // application class (workload short code)

	// Registered is when the 3-way registration handshake completed.
	Registered sim.Time

	// Phase is the thread's current/next GPU phase, maintained by the
	// backend thread.
	Phase Phase

	// Backlog reports how many requests the thread has pending (held call
	// plus inbox depth); installed by the backend thread at registration.
	Backlog func() int

	// Awake is the dispatcher's gate: the backend thread checks it before
	// executing each GPU request and parks on Wake while false.
	Awake bool
	Wake  sim.Signal

	// SignalID is the "real-time signal number" assigned during the
	// registration handshake (kept for protocol fidelity and debugging).
	SignalID int

	// Request Monitor state.
	Attained    sim.Time     // total attained GPU service
	XferTime    sim.Time     // copy-engine time attained
	MemTraffic  float64      // device-memory traffic so far (bytes)
	CGS         float64      // decayed cumulative GPU service (eq. 1)
	epochSample sim.Time     // service reading at the last epoch boundary
	lastRefresh sim.Time     // when the Request Monitor last sampled the device
	acct        *gpu.AppAcct // the device's record of the application, held to skip a lookup

	// TFS bookkeeping lives in the policy, keyed by tenant.

	exited  bool
	pickGen uint64 // dispatcher generation that last picked this entry awake

	// waiting is set while the thread waits for its Turn, under waitSpan.
	waiting  bool
	waitSpan trace.SpanID
}

// HasWork reports whether the thread has a pending request to run.
func (e *Entry) HasWork() bool {
	if e.exited {
		return false
	}
	if e.Backlog == nil {
		return false
	}
	return e.Backlog() > 0
}

// GPUUtil returns attained service over registered wall time.
func (e *Entry) GPUUtil(now sim.Time) float64 {
	wall := now - e.Registered
	if wall <= 0 {
		return 0
	}
	u := float64(e.Attained) / float64(wall)
	if u > 1 {
		u = 1
	}
	return u
}

// feedback writes the Feedback Engine's report for the application into fb.
func (e *Entry) feedback(now sim.Time, gid int, fb *rpcproto.Feedback) {
	*fb = rpcproto.Feedback{
		AppID:    int64(e.AppID),
		Kind:     e.Kind,
		GID:      int32(gid),
		ExecTime: now - e.Registered,
		GPUTime:  e.Attained,
		XferTime: e.XferTime,
		GPUUtil:  e.GPUUtil(now),
	}
	if e.Attained > 0 {
		fb.MemBW = e.MemTraffic / float64(e.Attained)
	}
}

// CallPhase classifies a marshalled CUDA call into the scheduler's phase
// taxonomy; backend threads report it before executing each request.
func CallPhase(c *rpcproto.Call) Phase {
	switch c.ID {
	case cuda.CallMemcpy, cuda.CallMemcpyAsync:
		if c.Dir == cuda.D2H {
			return PhaseD2H
		}
		return PhaseH2D
	case cuda.CallLaunch:
		return PhaseKL
	default:
		return PhaseDFL
	}
}

// GatesOnDispatch reports whether a call submits GPU work and therefore
// must wait for the Dispatcher's wake signal.
func GatesOnDispatch(id cuda.CallID) bool {
	switch id {
	case cuda.CallMemcpy, cuda.CallMemcpyAsync, cuda.CallLaunch:
		return true
	default:
		return false
	}
}
