// Package interpose implements the Strings frontend: the CUDA-runtime
// interposer library that dynamically links with an application (Figure 3 of
// the paper). It intercepts every CUDA runtime call, overrides the
// application's device selection through the GPU Affinity Mapper, marshals
// calls into RPC packets for the backend daemon owning the chosen GPU, and
// applies the paper's asynchrony optimization: calls without output
// parameters (kernel launches, host-to-device copies, frees) are issued as
// non-blocking RPCs so the application's CPU component runs ahead of the
// runtime layer.
package interpose

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fabric is what the interposer needs from the hosting Strings/Rain
// runtime: the affinity-mapper RPC, backend connections, and the feedback
// relay.
type Fabric interface {
	// SelectGPU posts the device-selection RPC to the workload balancer
	// without blocking: done fires once the verdict is in *gid. The caller
	// waits out SelectHop before the request and again after the verdict.
	SelectGPU(req balancer.Request, gid *balancer.GID, done *sim.Event)
	// SelectHop is the link a selection's caller waits out itself, each way:
	// the local link on the mapper's node, zero elsewhere, where the relay
	// pays the remote link.
	SelectHop() sim.Time
	// ConnectBackend opens an RPC connection from the application's node to
	// the backend daemon serving gid and returns the frontend endpoint.
	ConnectBackend(p *sim.Proc, gid balancer.GID, fromNode int) rpcproto.Endpoint
	// ReportFeedback relays a Feedback Engine report (piggybacked on the
	// cudaThreadExit reply) to the affinity mapper and releases the
	// binding.
	ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback)
	// ReportFailure feeds one failed call against gid into the mapper's
	// failure detector and returns the row's resulting health; it blocks
	// the calling process for the control round trip.
	ReportFailure(p *sim.Proc, gid balancer.GID) balancer.Health
	// ReportRecovered records a successful call against a previously
	// suspect device (fire and forget).
	ReportRecovered(gid balancer.GID)
	// PoolSize returns the number of GPUs in the gPool.
	PoolSize() int
}

// MarshalOverhead is the CPU cost of interception, argument marshalling and
// RPC issue, charged per intercepted call.
const MarshalOverhead = 3 * sim.Microsecond

// Interposer implements cuda.Client for one application thread.
type Interposer struct {
	fab    Fabric
	k      *sim.Kernel
	p      *sim.Proc // nil for a thread a daemon runs (Stepper)
	appID  int
	tenant int64
	weight int
	kind   string
	node   int

	// async enables the paper's asynchrony optimization (non-blocking RPCs
	// for calls without output parameters). Strings turns it on; the Rain
	// baseline predates it and issues every RPC synchronously.
	async bool

	bound  bool
	gid    balancer.GID
	ep     rpcproto.Endpoint
	seq    uint64
	exited bool

	// LastFeedback is the report returned on ThreadExit (also relayed to
	// the mapper); experiments read it for per-tenant accounting. It points
	// at fb, where the report is copied out of the reply frame.
	LastFeedback *rpcproto.Feedback
	fb           rpcproto.Feedback

	// rec is the failure-handling state (see recovery.go); disabled by
	// default, armed via SetRecovery.
	rec recState

	// tr is the observability recorder (nil when tracing is off) and
	// reqSpan the enclosing request span every call span parents to.
	tr      *trace.Recorder
	reqSpan trace.SpanID

	// pool recycles Call/Reply frames through the frontend's kernel (nil —
	// allocate-and-drop — until bound, and always nil in recovery mode,
	// whose retransmission state retains frames past the round trip).
	// lastCall/lastReply are the previous blocking round trip's frames:
	// by the time the frontend issues the next call the reply has been
	// fully consumed, so newCall recycles them one call late, and ThreadExit
	// the last pair.
	pool      *rpcproto.Pool
	lastCall  *rpcproto.Call
	lastReply *rpcproto.Reply

	// sel latches a selection's verdict; Init keeps it for the next thread.
	sel *sim.Event

	// The call in flight of a thread a daemon runs (step.go).
	at       stage
	op       cuda.CallID
	inflight *rpcproto.Call
	blocking bool
	span     trace.SpanID
	ptr      cuda.Ptr
	err      error
}

// SetTrace installs the observability recorder and the enclosing request
// span. Call before the first CUDA call; a nil recorder disables tracing.
func (ip *Interposer) SetTrace(tr *trace.Recorder, reqSpan trace.SpanID) {
	ip.tr = tr
	ip.reqSpan = reqSpan
}

// New creates the interposer for an application thread running on process p
// at the given node. kind is the application's class name, carried to the
// scheduler for SFT keying. async enables non-blocking RPCs for calls
// without output parameters (Strings); Rain's frontend passes false.
func New(fab Fabric, p *sim.Proc, appID int, tenant int64, weight int, kind string, node int, async bool) *Interposer {
	ip := &Interposer{}
	var k *sim.Kernel
	if p != nil { // nil for an MTSession's, which lends it its threads
		k = p.Kernel()
	}
	ip.Init(fab, k, appID, tenant, weight, kind, node, async)
	ip.p = p
	return ip
}

// Init makes *ip, held by value or reused after its thread is done, the
// interposer New makes, for a thread a daemon on k runs through the Stepper
// methods instead of a process.
func (ip *Interposer) Init(fab Fabric, k *sim.Kernel, appID int, tenant int64, weight int, kind string, node int, async bool) {
	*ip = Interposer{
		fab: fab, k: k, appID: appID, tenant: tenant, weight: weight,
		kind: kind, node: node, async: async, sel: ip.sel,
	}
}

// Proc implements cuda.Client.
func (ip *Interposer) Proc() *sim.Proc { return ip.p }

// GID returns the gPool device the application was bound to.
func (ip *Interposer) GID() balancer.GID { return ip.gid }

// freeLast returns the previous blocking round trip's frames to the pool, once
// the reply has been consumed.
func (ip *Interposer) freeLast() {
	ip.pool.FreeCall(ip.lastCall)
	ip.pool.FreeReply(ip.lastReply)
	ip.lastCall, ip.lastReply = nil, nil
}

// newCall stamps a marshalled call with identity and sequence. It also
// recycles the previous blocking round trip's frames: issuing a new call
// proves the application has consumed the old reply.
func (ip *Interposer) newCall(id cuda.CallID) *rpcproto.Call {
	ip.freeLast()
	ip.seq++
	c := ip.pool.GetCall()
	c.ID = id
	c.Seq = ip.seq
	c.AppID = int64(ip.appID)
	c.TenantID = ip.tenant
	c.Weight = int32(ip.weight)
	return c
}

// ensureBound lazily binds to a GPU: CUDA initializes on first use when the
// application never calls cudaSetDevice. After ThreadExit every call fails in
// SetDevice, as on cuda.Thread: the session is gone, its connection reused.
func (ip *Interposer) ensureBound() error {
	if ip.bound && !ip.exited {
		return nil
	}
	return ip.SetDevice(0)
}

// send issues a call; blocking calls wait for and return the matching
// reply, non-blocking calls return immediately (the paper's asynchronous
// RPC optimization; errors surface at the next synchronizing call). With a
// recorder installed, each call gets a span covering its frontend-visible
// latency (non-blocking calls close at issue).
func (ip *Interposer) send(c *rpcproto.Call, blocking bool) (*rpcproto.Reply, error) {
	if !ip.tr.Enabled() {
		return ip.sendRPC(c, blocking)
	}
	sp := ip.beginCall(c)
	r, err := ip.sendRPC(c, blocking)
	ip.tr.End(sp, ip.k.Now())
	return r, err
}

// beginCall opens the span of c's frontend-visible latency.
func (ip *Interposer) beginCall(c *rpcproto.Call) trace.SpanID {
	return ip.tr.Begin(trace.KCall, ip.reqSpan, ip.k.Now(), c.ID.String(),
		ip.appID, int(ip.gid), int64(c.Seq))
}

// sendRPC is send's wire path.
func (ip *Interposer) sendRPC(c *rpcproto.Call, blocking bool) (*rpcproto.Reply, error) {
	ip.p.Sleep(MarshalOverhead)
	if !ip.async {
		blocking = true
	}
	c.NonBlocking = !blocking
	if ip.rec.cfg.Enabled() {
		return ip.sendReliable(c, blocking)
	}
	ip.ep.Send(ip.p, c, c.PayloadBytes())
	if !blocking {
		return nil, nil
	}
	return ip.received(c, ip.ep.Recv(ip.p))
}

// received takes msg as the reply to the blocking call c.
func (ip *Interposer) received(c *rpcproto.Call, msg rpcproto.Msg) (*rpcproto.Reply, error) {
	r, ok := msg.(*rpcproto.Reply)
	if !ok {
		return nil, fmt.Errorf("interpose: unexpected message %T", msg)
	}
	// Without retransmission the backend answers each blocking call once,
	// in order, so the next reply is this call's or the stream is broken.
	if r.Seq != c.Seq {
		return nil, fmt.Errorf("interpose: reply %d does not answer call %d", r.Seq, c.Seq)
	}
	// Both frames are now owned by the frontend; the next newCall recycles
	// them once this reply has been consumed.
	ip.lastCall = c
	ip.lastReply = r
	return r, r.AsError()
}

// connect opens the connection to the bound GPU's backend. Retransmission
// retains frames past their round trip, so under recovery neither side recycles.
func (ip *Interposer) connect() {
	ip.ep = ip.fab.ConnectBackend(ip.p, ip.gid, ip.node)
	if ip.rec.cfg.Enabled() {
		ip.ep.RetainFrames()
	}
	ip.pool = ip.ep.Pool()
}

// SetDevice implements cuda.Client: the call is intercepted and the target
// GPU is chosen by the workload balancer instead of the application.
func (ip *Interposer) SetDevice(dev int) error {
	if ip.exited {
		return cuda.ErrThreadExited
	}
	if ip.bound {
		// Re-selection after binding is ignored: the balancer owns
		// placement for the application's lifetime.
		return nil
	}
	ip.p.Sleep(MarshalOverhead)
	sel := ip.beginSelect()
	ip.selectGPU()
	_, err := ip.send(ip.bind(sel), true)
	return err
}

// beginSelect opens the span of the device-selection round trip.
func (ip *Interposer) beginSelect() trace.SpanID {
	return ip.tr.Begin(trace.KSelect, ip.reqSpan, ip.k.Now(), "select-gpu", ip.appID, -1, 0)
}

// selectGPU is the device-selection round trip on the thread's process: the
// verdict lands in ip.gid.
func (ip *Interposer) selectGPU() {
	hop := ip.fab.SelectHop()
	if hop > 0 {
		ip.p.Sleep(hop)
	}
	ip.p.Wait(ip.postSelect())
	if hop > 0 {
		ip.p.Sleep(hop)
	}
}

// postSelect posts the selection request and returns the latch of its
// verdict, which lands in ip.gid.
func (ip *Interposer) postSelect() *sim.Event {
	if ip.sel == nil {
		ip.sel = ip.k.NewEvent()
	}
	ip.sel.Reset()
	ip.fab.SelectGPU(balancer.Request{
		AppID: ip.appID, Kind: ip.kind, Node: ip.node, Tenant: ip.tenant,
	}, &ip.gid, ip.sel)
	return ip.sel
}

// bind ends the selection span sel, connects to the chosen GPU's backend and
// returns the registration call.
func (ip *Interposer) bind(sel trace.SpanID) *rpcproto.Call {
	ip.tr.SetGID(sel, int(ip.gid))
	ip.tr.End(sel, ip.k.Now())
	ip.connect()
	ip.bound = true
	reg := ip.newCall(cuda.CallSetDevice)
	reg.Dev = int32(ip.gid)
	reg.KernelName = ip.kind // carries the class for RCB/SFT keying
	return reg
}

// DeviceCount implements cuda.Client: applications see the whole gPool.
func (ip *Interposer) DeviceCount() int {
	return ip.fab.PoolSize()
}

// marshal stamps op's call and reports whether the frontend waits for its
// reply. Calls without output parameters ride the non-blocking path: frees,
// launches, asynchronous copies, and host-to-device copies, which carry the
// buffer with the request (the MOT makes them asynchronous at the backend);
// a device-to-host copy must return data, so it blocks.
func (ip *Interposer) marshal(op *cuda.Op) (*rpcproto.Call, bool) {
	c := ip.newCall(op.ID)
	c.Dir, c.Bytes, c.Stream = op.Dir, op.Bytes, int32(op.Stream)
	c.PtrID, c.PtrSize, c.PtrDev = op.Ptr.ID, op.Ptr.Size, int32(op.Ptr.Dev)
	k := &op.Kernel
	c.KernelName, c.Compute, c.MemTraffic, c.Occupancy = k.Name, k.Compute, k.MemTraffic, k.Occupancy
	switch op.ID {
	case cuda.CallMemcpy:
		return c, op.Dir == cuda.D2H
	case cuda.CallFree, cuda.CallMemcpyAsync, cuda.CallLaunch:
		return c, false
	}
	return c, true
}

// call makes op's call on the thread's process.
func (ip *Interposer) call(op *cuda.Op) (*rpcproto.Reply, error) {
	if err := ip.ensureBound(); err != nil {
		return nil, err
	}
	return ip.send(ip.marshal(op))
}

// Malloc implements cuda.Client.
func (ip *Interposer) Malloc(bytes int64) (cuda.Ptr, error) {
	r, err := ip.call(&cuda.Op{ID: cuda.CallMalloc, Bytes: bytes})
	if err != nil {
		return cuda.Ptr{}, err
	}
	return ip.internPtr(r), nil
}

// Free implements cuda.Client.
func (ip *Interposer) Free(ptr cuda.Ptr) error {
	_, err := ip.call(&cuda.Op{ID: cuda.CallFree, Ptr: ptr})
	if err == nil { // a non-blocking send reports no error: the call went out
		ip.forgetPtr(ptr.ID)
	}
	return err
}

// Memcpy implements cuda.Client.
func (ip *Interposer) Memcpy(dir cuda.Dir, ptr cuda.Ptr, bytes int64) error {
	_, err := ip.call(&cuda.Op{ID: cuda.CallMemcpy, Dir: dir, Ptr: ptr, Bytes: bytes})
	return err
}

// MemcpyAsync implements cuda.Client.
func (ip *Interposer) MemcpyAsync(dir cuda.Dir, ptr cuda.Ptr, bytes int64, s cuda.StreamID) error {
	_, err := ip.call(&cuda.Op{ID: cuda.CallMemcpyAsync, Dir: dir, Ptr: ptr, Bytes: bytes, Stream: s})
	return err
}

// Launch implements cuda.Client; launches are asynchronous RPCs.
func (ip *Interposer) Launch(k cuda.Kernel, s cuda.StreamID) error {
	_, err := ip.call(&cuda.Op{ID: cuda.CallLaunch, Kernel: k, Stream: s})
	return err
}

// StreamCreate implements cuda.Client.
func (ip *Interposer) StreamCreate() (cuda.StreamID, error) {
	if err := ip.ensureBound(); err != nil {
		return 0, err
	}
	r, err := ip.send(ip.newCall(cuda.CallStreamCreate), true)
	if err != nil {
		return 0, err
	}
	return ip.internStream(r.Stream), nil
}

// StreamSynchronize implements cuda.Client.
func (ip *Interposer) StreamSynchronize(s cuda.StreamID) error {
	if err := ip.ensureBound(); err != nil {
		return err
	}
	c := ip.newCall(cuda.CallStreamSync)
	c.Stream = int32(s)
	_, err := ip.send(c, true)
	return err
}

// StreamDestroy implements cuda.Client.
func (ip *Interposer) StreamDestroy(s cuda.StreamID) error {
	if err := ip.ensureBound(); err != nil {
		return err
	}
	c := ip.newCall(cuda.CallStreamDestroy)
	c.Stream = int32(s)
	_, err := ip.send(c, true)
	ip.forgetStream(s)
	return err
}

// DeviceSynchronize implements cuda.Client. The backend's SST scopes it to
// the application's own stream.
func (ip *Interposer) DeviceSynchronize() error {
	_, err := ip.call(&cuda.Op{ID: cuda.CallDeviceSync})
	return err
}

// EventCreate implements cuda.Client.
func (ip *Interposer) EventCreate() (cuda.EventID, error) {
	if err := ip.ensureBound(); err != nil {
		return 0, err
	}
	r, err := ip.send(ip.newCall(cuda.CallEventCreate), true)
	if err != nil {
		return 0, err
	}
	return ip.internEvent(r.Event), nil
}

// EventRecord implements cuda.Client; records ride the non-blocking path
// (no output parameters).
func (ip *Interposer) EventRecord(e cuda.EventID, s cuda.StreamID) error {
	if err := ip.ensureBound(); err != nil {
		return err
	}
	c := ip.newCall(cuda.CallEventRecord)
	c.Event = int32(e)
	c.Stream = int32(s)
	_, err := ip.send(c, false)
	return err
}

// EventSynchronize implements cuda.Client.
func (ip *Interposer) EventSynchronize(e cuda.EventID) error {
	if err := ip.ensureBound(); err != nil {
		return err
	}
	c := ip.newCall(cuda.CallEventSync)
	c.Event = int32(e)
	_, err := ip.send(c, true)
	return err
}

// EventElapsed implements cuda.Client.
func (ip *Interposer) EventElapsed(start, end cuda.EventID) (sim.Time, error) {
	if err := ip.ensureBound(); err != nil {
		return 0, err
	}
	c := ip.newCall(cuda.CallEventElapsed)
	c.Event = int32(start)
	c.Event2 = int32(end)
	r, err := ip.send(c, true)
	if err != nil {
		return 0, err
	}
	return sim.Time(r.Elapsed), nil
}

// EventDestroy implements cuda.Client; no output parameters.
func (ip *Interposer) EventDestroy(e cuda.EventID) error {
	if err := ip.ensureBound(); err != nil {
		return err
	}
	c := ip.newCall(cuda.CallEventDestroy)
	c.Event = int32(e)
	_, err := ip.send(c, false)
	ip.forgetEvent(e)
	return err
}

// ThreadExit implements cuda.Client: the reply piggybacks the Feedback
// Engine's report, which the interposer relays to the affinity mapper.
func (ip *Interposer) ThreadExit() error {
	if err := ip.ensureBound(); err != nil {
		return err
	}
	r, err := ip.send(ip.marshal(&cuda.Op{ID: cuda.CallThreadExit}))
	ip.exit(r)
	return err
}

// exit ends the thread once ThreadExit's reply r is in (nil if it failed):
// the feedback goes to the mapper and the binding is released.
func (ip *Interposer) exit(r *rpcproto.Reply) {
	ip.exited = true
	if r != nil {
		ip.ep.Close() // the session's last reply is in: this side is done too
		if r.Feedback != nil {
			ip.fb = *r.Feedback
			ip.LastFeedback = &ip.fb
		}
	}
	ip.freeLast() // no next call will: the feedback was all that was left to read
	ip.fab.ReportFeedback(ip.gid, ip.kind, ip.LastFeedback)
}
