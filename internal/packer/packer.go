// Package packer implements the paper's Context Packer: the backend-side
// layer that folds the GPU work of every application sharing a device into a
// single GPU context. Its components, named as in the paper:
//
//   - Stream Creator (SC): a dedicated CUDA stream per application, created
//     on the first request and torn down on cudaThreadExit.
//   - Auto Stream Translator (AST): operations the application targeted at
//     the default stream are retargeted onto its dedicated stream.
//   - Sync Stream Translator (SST): cudaDeviceSynchronize becomes
//     cudaStreamSynchronize, so one application's sync never stalls the
//     other tenants packed into the context.
//   - Memory Operation Translator (MOT): synchronous memcpys become
//     asynchronous ones staged through pinned host memory, tracked in the
//     Pinned Memory Table (PMT) and released at the application's next
//     synchronization point.
package packer

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config tunes the packer.
type Config struct {
	// PinBandwidth is the host-side bandwidth (bytes/us) of staging a user
	// buffer into pinned memory; 0 disables the cost.
	PinBandwidth float64
}

// DefaultConfig stages pinned copies at ~4 GB/s.
func DefaultConfig() Config { return Config{PinBandwidth: 4000} }

// Packer owns the single shared GPU context of one backend process (one per
// device) and the per-device Pinned Memory Table.
type Packer struct {
	rt    cuda.Runtime // the backend process's
	cfg   Config
	pmt   PMT
	lanes []*Port // every lane Open made, for Init to take back
	free  []*Port // empty lanes, for Open to reuse
	rec   *trace.Recorder
	gid   int // gPool device id, for span attribution (-1 when unset)
}

// SetRecorder installs the observability recorder and the packer's gPool
// device id: every Execute then emits a backend-side exec span. A nil
// recorder disables it.
func (pk *Packer) SetRecorder(rec *trace.Recorder, gid int) {
	pk.rec = rec
	pk.gid = gid
}

// New creates a packer over (a copy of) the backend process's CUDA runtime.
func New(rt *cuda.Runtime, cfg Config) *Packer {
	return &Packer{rt: *rt, cfg: cfg, gid: -1}
}

// Init makes *pk, new or reused once its kernel has been reset or closed, the
// packer New returns over a fresh process seeing devices; its context tables
// keep their arrays. Every lane it made goes back on the free list emptied,
// the ones a cut run left open too: no pinned row, allocation or process of
// the run before stays on it. What the old process held needs no release:
// the kernel's Reset takes back its events, and its device's Init its context
// and memory. It returns pk.
func (pk *Packer) Init(k *sim.Kernel, devices []*gpu.Device, rtCfg cuda.Config, cfg Config) *Packer {
	pk.rt.Init(k, devices, rtCfg)
	free := pk.free[:0]
	for _, port := range pk.lanes {
		*port = Port{thread: port.thread, pinned: port.pinned[:0]}
		pk.rt.InitThread(&port.thread, nil, 0)
		free = append(free, port)
	}
	*pk = Packer{rt: pk.rt, cfg: cfg, lanes: pk.lanes, free: free, gid: -1}
	return pk
}

// Port is one application's lane through the packer: its backend CUDA
// thread, its dedicated stream, and its rows of the PMT. Once its
// cudaThreadExit completes, or the packer's Init takes it back from a cut
// run, the next Open reuses it, thread and row arrays too.
type Port struct {
	pk     *Packer
	AppID  int
	Tenant int64

	thread cuda.Thread
	stream cuda.StreamID
	pinned PinnedRows
	proc   *sim.Proc
	closed bool
	pool   *rpcproto.Pool

	// The call in flight: its reply, its exec span, and what it does after
	// its thread's waits (on stream synced, for releaseSynced).
	reply  *rpcproto.Reply
	span   trace.SpanID
	then   func(*Port)
	synced cuda.StreamID
}

// SetPool installs the RPC frame pool replies are drawn from (the serving
// connection's pool, so the frontend can recycle them). A nil pool — the
// default — allocates fresh replies.
func (port *Port) SetPool(pool *rpcproto.Pool) { port.pool = pool }

// Open registers an application with the packer (the Stream Creator's job):
// it binds a backend CUDA thread for the app on the backend process's
// context and creates the app's dedicated stream. The thread runs on p, or is
// a daemon's with p nil (cuda.NewThread), which charges no pinned staging.
func (pk *Packer) Open(p *sim.Proc, appID int, tenant int64) (*Port, error) {
	var port *Port
	if n := len(pk.free); n > 0 {
		port, pk.free = pk.free[n-1], pk.free[:n-1]
	} else {
		port = &Port{}
		pk.lanes = append(pk.lanes, port) // bounded by peak open lanes
	}
	*port = Port{pk: pk, AppID: appID, Tenant: tenant, thread: port.thread, pinned: port.pinned, proc: p}
	t := &port.thread
	pk.rt.InitThread(t, p, appID)
	if err := t.SetDevice(0); err != nil { // backend processes are per-GPU
		return nil, err
	}
	s, err := t.StreamCreate()
	if err != nil {
		return nil, err
	}
	port.stream = s
	return port, nil
}

// translateStream implements the AST: default-stream operations move to the
// application's dedicated stream; explicit streams the application created
// through the runtime pass through.
func (port *Port) translateStream(s cuda.StreamID) cuda.StreamID {
	if s == cuda.DefaultStream {
		return port.stream
	}
	return s
}

// retarget applies the AST to a stream-addressed frame.
func (port *Port) retarget(call *rpcproto.Call) {
	call.Stream = int32(port.translateStream(cuda.StreamID(call.Stream)))
}

// Execute runs one marshalled CUDA call through the packer's translations
// and returns the reply, final once Pending returns nil.
func (port *Port) Execute(call *rpcproto.Call) *rpcproto.Reply {
	reply := port.pool.GetReply()
	port.reply = reply
	if rec := port.pk.rec; rec.Enabled() {
		port.span = rec.Begin(trace.KExec, 0, port.pk.rt.Kernel().Now(), call.ID.String(),
			port.AppID, port.pk.gid, int64(call.Seq))
	}
	port.execute(call, reply)
	port.Pending()
	return reply
}

// Pending is the rest of the call in flight: it returns the event the call
// waits for next, and once all have fired completes the call and returns nil.
func (port *Port) Pending() *sim.Event {
	for port.reply != nil {
		if ev := port.thread.Pending(); ev != nil {
			return ev
		}
		if then := port.then; then != nil {
			port.then = nil
			then(port)
			continue
		}
		port.pk.rec.End(port.span, port.pk.rt.Kernel().Now())
		port.reply = nil
	}
	return nil
}

// releaseSynced frees the pinned buffers of the stream a copy or a
// synchronize waited for (MOT, SST).
func (port *Port) releaseSynced() {
	if port.reply.Err == "" {
		port.pk.pmt.ReleaseSynced(&port.pinned, port.synced)
	}
}

// releaseApp frees the application's pinned buffers (SST).
func (port *Port) releaseApp() { port.pk.pmt.ReleaseApp(&port.pinned) }

// closeStream and closeThread finish a close once the application's stream
// has drained: its pinned memory, stream and allocations go, and then the
// lane itself goes back to the packer (free).
func (port *Port) closeStream() {
	port.releaseApp()
	if err := port.thread.StreamDestroy(port.stream); err != nil {
		port.reply.SetError(err)
		return
	}
	port.then = (*Port).closeThread
}

func (port *Port) closeThread() {
	port.reply.SetError(port.thread.ThreadExit())
	port.then = (*Port).free
}

// free returns the closed lane for the next Open; until then it answers
// only with ErrThreadExited.
func (port *Port) free() { port.pk.free = append(port.pk.free, port) } // bounded by the lanes made

// execute is Execute's first half: the AST/SST/MOT translations, then the
// shared verbatim executor. A translation rewrites the frame in place — the
// backend owns a received frame's addressing fields, and a rewritten stream is
// no longer the default one, so a frame delivered twice translates the same
// way. What the call does after its thread's waits is left in port.then.
func (port *Port) execute(call *rpcproto.Call, reply *rpcproto.Reply) {
	reply.Seq = call.Seq
	if port.closed {
		reply.SetError(cuda.ErrThreadExited)
		return
	}
	t := &port.thread
	switch call.ID {
	case cuda.CallSetDevice:
		// Target selection already happened at the balancer: whatever GID the
		// frame names, this backend process owns exactly one device.
		call.Dev = 0

	case cuda.CallMemcpy:
		port.memcpy(call, reply)
		return

	case cuda.CallMemcpyAsync:
		port.retarget(call)
		if call.Dir == cuda.H2D {
			port.pinCost(call.Bytes)
			port.pk.pmt.Add(&port.pinned, port.AppID, cuda.StreamID(call.Stream), call.Bytes, call.Dir)
		}

	case cuda.CallLaunch, cuda.CallEventRecord:
		port.retarget(call)

	case cuda.CallStreamSync:
		port.retarget(call)
		rpcproto.Execute(t, call, reply)
		port.then, port.synced = (*Port).releaseSynced, cuda.StreamID(call.Stream)
		return

	case cuda.CallStreamDestroy:
		// The default stream is the application's dedicated one here; it
		// lives until cudaThreadExit.
		if cuda.StreamID(call.Stream) == cuda.DefaultStream {
			reply.SetError(cuda.ErrInvalidValue)
			return
		}

	case cuda.CallDeviceSync:
		// SST: the device-wide synchronize becomes a synchronize of the
		// app's own stream, so co-tenants are unaffected.
		if err := t.StreamSynchronize(port.stream); err != nil {
			reply.SetError(err)
			return
		}
		port.then = (*Port).releaseApp
		return

	case cuda.CallThreadExit:
		port.closed = true
		if err := t.StreamSynchronize(port.stream); err != nil {
			reply.SetError(err)
			return
		}
		port.then = (*Port).closeStream
		return
	}
	rpcproto.Execute(t, call, reply)
}

// memcpy implements the MOT: synchronous copies become asynchronous, staged
// through pinned memory. H2D returns as soon as the copy is queued (the
// pinned buffer is reclaimed at the app's next sync point); D2H must return
// data, so it synchronizes the app's stream first.
func (port *Port) memcpy(call *rpcproto.Call, reply *rpcproto.Reply) {
	t, s := &port.thread, port.stream
	ptr := call.Op().Ptr
	if call.Dir == cuda.H2D {
		port.pinCost(call.Bytes)
		id := port.pk.pmt.Add(&port.pinned, port.AppID, s, call.Bytes, call.Dir)
		if err := t.MemcpyAsync(cuda.H2D, ptr, call.Bytes, s); err != nil {
			port.pk.pmt.Release(&port.pinned, id)
			reply.SetError(err)
		}
		return
	}
	if err := t.MemcpyAsync(cuda.D2H, ptr, call.Bytes, s); err != nil {
		reply.SetError(err)
		return
	}
	if err := t.StreamSynchronize(s); err != nil {
		reply.SetError(err)
		return
	}
	port.then, port.synced = (*Port).releaseSynced, s
}

// pinCost charges the MOT's host-to-pinned staging copy.
func (port *Port) pinCost(bytes int64) {
	if port.pk.cfg.PinBandwidth > 0 && bytes > 0 {
		port.proc.Sleep(sim.Time(float64(bytes)/port.pk.cfg.PinBandwidth + 0.5))
	}
}
