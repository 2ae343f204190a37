package cuda

import (
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// Runtime simulates the CUDA runtime state of one host process over a set of
// local devices. Threads created from one Runtime share a single GPU context
// per device; separate Runtimes own separate contexts.
type Runtime struct {
	k       *sim.Kernel
	cfg     Config
	devices []*gpu.Device
	ctxs    []*procCtx // indexed by device ordinal; nil until first touch
	owner   int        // owning application for single-app processes (0 = shared)
}

// SetOwner marks the process as belonging to a single application; its GPU
// contexts are then attributed to that application, which makes the driver's
// context-switch overhead land in the application's attained service — the
// coarse accounting of per-process-context runtimes (bare CUDA and Rain).
func (rt *Runtime) SetOwner(appID int) { rt.owner = appID }

// procCtx is the process's context state on one device. Streams and their
// newest-op events live in dense slices — stream ids are sequential integers,
// and the per-call map lookups they replace were a measurable slice of the
// event hot path. Slot 0 is the default stream's and stream id > 0 is at slot
// id-base: ids up to base were destroyed and trimmed, so a packed context
// serving one application after another keeps tables its live streams' size.
type procCtx struct {
	ctx     *gpu.Context  // nil until first touch
	streams []*gpu.Stream // by slot; nil = not created/destroyed
	lastOp  []*sim.Event  // completion of the newest op per stream
	base    StreamID
	next    StreamID

	// live lists the ids of existing streams in ascending order (ids are
	// handed out monotonically and appended on creation). Device-wide
	// operations walk this instead of the dense tables, which keep the
	// destroyed streams that live ones follow.
	live []StreamID

	events map[EventID]*eventRec // lazily allocated on first EventCreate
	nextEv EventID
}

// eventRec is one CUDA event's state: the marker op of its latest record.
type eventRec struct {
	marker *gpu.Op // nil until recorded
}

// NewRuntime creates the runtime of a fresh host process seeing the given
// devices (device ordinals are indices into the slice).
func NewRuntime(k *sim.Kernel, devices []*gpu.Device, cfg Config) *Runtime {
	rt := &Runtime{}
	rt.Init(k, devices, cfg)
	return rt
}

// Init makes *rt, held by value or reused once its process is over (Release),
// the runtime of a fresh process as NewRuntime does; its context tables keep
// their arrays. The contexts of a process that was not released are left to
// their devices.
func (rt *Runtime) Init(k *sim.Kernel, devices []*gpu.Device, cfg Config) {
	ctxs := rt.ctxs[:cap(rt.ctxs)]
	for _, pc := range ctxs {
		if pc != nil {
			pc.reset()
		}
	}
	for len(ctxs) < len(devices) {
		ctxs = append(ctxs, nil)
	}
	*rt = Runtime{k: k, cfg: cfg, devices: devices, ctxs: ctxs[:len(devices)]}
}

// Release ends the process: each of its contexts gives up the newest-op
// events its streams hold, and one with no work left is destroyed on its
// device, which may hand it to the next process. A context still running
// work stays on its device. The runtime is left ready for Init.
func (rt *Runtime) Release() {
	for i, pc := range rt.ctxs {
		if pc == nil || pc.ctx == nil {
			continue
		}
		for _, ev := range pc.lastOp {
			ev.Unref()
		}
		rt.devices[i].DestroyContext(pc.ctx)
		pc.reset()
	}
}

// reset forgets the context and everything in it, keeping the tables' arrays.
func (pc *procCtx) reset() {
	pc.ctx = nil
	clear(pc.streams)
	pc.streams = pc.streams[:0]
	clear(pc.lastOp)
	pc.lastOp = pc.lastOp[:0]
	pc.base = 0
	pc.live = pc.live[:0]
	clear(pc.events)
}

// Kernel returns the kernel the runtime's devices run on.
func (rt *Runtime) Kernel() *sim.Kernel { return rt.k }

// ctx returns the process's context state on the thread's device, creating it
// (and charging the context-creation cost to the thread) on first touch.
func (t *Thread) ctx() *procCtx {
	rt := t.rt
	pc := rt.ctxs[t.dev]
	if pc == nil {
		pc = &procCtx{}
		rt.ctxs[t.dev] = pc
	}
	if pc.ctx == nil {
		pc.ctx = rt.devices[t.dev].NewContext()
		pc.next, pc.nextEv = 1, 1
		if rt.owner != 0 {
			pc.ctx.Owner = rt.owner
		}
		t.charge(rt.cfg.ContextCreate)
	}
	return pc
}

// at is id's slot in the dense tables, which may be past their end; -1 for a
// trimmed id.
func (pc *procCtx) at(id StreamID) int {
	if id > DefaultStream {
		if id -= pc.base; id <= DefaultStream {
			return -1
		}
	}
	return int(id)
}

// hasStream reports whether id names a live stream.
func (pc *procCtx) hasStream(id StreamID) bool {
	i := pc.at(id)
	return i >= 0 && i < len(pc.streams) && pc.streams[i] != nil
}

// last returns the completion event of the newest op on the stream, nil when
// the stream is idle or unknown.
func (pc *procCtx) last(id StreamID) *sim.Event {
	if i := pc.at(id); i >= 0 && i < len(pc.lastOp) {
		return pc.lastOp[i]
	}
	return nil
}

// setStream grows the dense stream table to cover id and installs s.
func (pc *procCtx) setStream(id StreamID, s *gpu.Stream) {
	i := pc.at(id)
	for i >= len(pc.streams) {
		pc.streams = append(pc.streams, nil)
		pc.lastOp = append(pc.lastOp, nil)
	}
	pc.streams[i] = s
	// Ids are monotonic except for the default stream (id 0, materialized
	// lazily), so an append keeps live ascending in every case but that one.
	if n := len(pc.live); n == 0 || pc.live[n-1] < id {
		pc.live = append(pc.live, id)
	} else {
		pc.live = append(pc.live, 0)
		copy(pc.live[1:], pc.live[:n])
		pc.live[0] = id
	}
}

// dropStream clears a destroyed stream's slots and removes it from live. The
// lowest stream after the default one takes the destroyed streams up to the
// next live one out of the tables with it (a destroyed stream's lastOp slot
// is already empty).
func (pc *procCtx) dropStream(id StreamID) {
	i := pc.at(id)
	pc.streams[i] = nil
	if i == 1 {
		for i < len(pc.streams) && pc.streams[i] == nil {
			i++
		}
		n := copy(pc.streams[1:], pc.streams[i:]) + 1
		copy(pc.lastOp[1:], pc.lastOp[i:])
		clear(pc.streams[n:])
		clear(pc.lastOp[n:])
		pc.streams, pc.lastOp = pc.streams[:n], pc.lastOp[:n]
		pc.base += StreamID(i - 1)
	}
	for i, x := range pc.live {
		if x == id {
			pc.live = append(pc.live[:i], pc.live[i+1:]...)
			break
		}
	}
}

// stream resolves a StreamID, lazily materializing the default stream.
func (pc *procCtx) stream(id StreamID) (*gpu.Stream, error) {
	if pc.hasStream(id) {
		return pc.streams[pc.at(id)], nil
	}
	if id != DefaultStream {
		return nil, ErrInvalidStream
	}
	s := pc.ctx.NewStream()
	pc.setStream(DefaultStream, s)
	return s, nil
}

// Thread is one host thread of the process, executing directly against the
// local devices (the bare CUDA runtime path).
//
// A call that waits (Memcpy, Malloc under BlockOnOOM, the synchronizes,
// StreamDestroy, ThreadExit) settles its result up to the wait and leaves the
// events to wait for pending; Pending is the rest of the call. A thread on a
// process waits them out inside the call, a daemon's returns with them.
type Thread struct {
	rt     *Runtime
	p      *sim.Proc
	appID  int
	dev    int
	allocs []Ptr
	nextID int64
	exited bool
	calls  int

	// The call in flight's waits, each holding a reference its end releases
	// (waits[nw] is next), and what the call does after them.
	waits []*sim.Event
	nw    int
	one   [1]*sim.Event
	syncs []*sim.Event // a device-wide synchronize's waits, kept for the next
	then  func(*Thread)
	sid   StreamID // the stream StreamDestroy drops

	// The outcome of the call Issue made (Stepper).
	ret Ret
	err error
}

// Issue implements Stepper, and is the one place an opcode turns into a
// method call: the backends' executor (rpcproto.Execute) issues every
// marshalled call here. On a daemon's thread the call settles what it can at
// once and leaves its waits to Await (or Pending); on a process's thread it
// waits them out before Issue returns.
func (t *Thread) Issue(op *Op) {
	t.ret, t.err = Ret{}, nil
	switch op.ID {
	case CallSetDevice:
		t.err = t.SetDevice(op.Dev)
	case CallDeviceCount:
		t.ret.Count = t.DeviceCount()
	case CallMalloc:
		t.ret.Ptr, t.err = t.Malloc(op.Bytes)
	case CallFree:
		t.err = t.Free(op.Ptr)
	case CallMemcpy:
		t.err = t.Memcpy(op.Dir, op.Ptr, op.Bytes)
	case CallMemcpyAsync:
		t.err = t.MemcpyAsync(op.Dir, op.Ptr, op.Bytes, op.Stream)
	case CallLaunch:
		t.err = t.Launch(op.Kernel, op.Stream)
	case CallStreamCreate:
		t.ret.Stream, t.err = t.StreamCreate()
	case CallStreamSync:
		t.err = t.StreamSynchronize(op.Stream)
	case CallStreamDestroy:
		t.err = t.StreamDestroy(op.Stream)
	case CallDeviceSync:
		t.err = t.DeviceSynchronize()
	case CallThreadExit:
		t.err = t.ThreadExit()
	case CallEventCreate:
		t.ret.Event, t.err = t.EventCreate()
	case CallEventRecord:
		t.err = t.EventRecord(op.Event, op.Stream)
	case CallEventSync:
		t.err = t.EventSynchronize(op.Event)
	case CallEventElapsed:
		t.ret.Elapsed, t.err = t.EventElapsed(op.Event, op.Event2)
	case CallEventDestroy:
		t.err = t.EventDestroy(op.Event)
	default:
		t.err = ErrNotImplemented
	}
}

// Await implements Stepper: the call's waits are Pending's.
func (t *Thread) Await(d *sim.Daemon) bool {
	if ev := t.Pending(); ev != nil {
		d.Wait(ev)
		return false
	}
	return true
}

// Result implements Stepper.
func (t *Thread) Result() (Ret, error) { return t.ret, t.err }

// NewThread binds a host thread executing on sim process p with application
// id appID (used for device-side service attribution). With p nil the thread
// is a daemon's, and its runtime's Config must charge no host-side costs.
func (rt *Runtime) NewThread(p *sim.Proc, appID int) *Thread {
	t := &Thread{}
	rt.InitThread(t, p, appID)
	return t
}

// InitThread makes *t, held by value or reused after its ThreadExit, a new
// thread of the runtime as NewThread does; its allocation and wait lists keep
// their arrays.
func (rt *Runtime) InitThread(t *Thread, p *sim.Proc, appID int) {
	*t = Thread{rt: rt, p: p, appID: appID, allocs: t.allocs[:0], syncs: t.syncs[:0]}
}

// charge spends a host-side cost on the thread's process.
func (t *Thread) charge(d sim.Time) {
	if d > 0 {
		t.p.Sleep(d)
	}
}

// await makes evs the call's waits and then what follows them, and waits them
// out on the thread's process, if it has one.
func (t *Thread) await(evs []*sim.Event, then func(*Thread)) {
	t.waits, t.nw, t.then = evs, 0, then
	for ev := t.Pending(); ev != nil && t.p != nil; ev = t.Pending() {
		t.p.Wait(ev)
	}
}

// awaitOne is await on one event.
func (t *Thread) awaitOne(ev *sim.Event, then func(*Thread)) {
	t.one[0] = ev
	t.await(t.one[:], then)
}

// Pending is the rest of the call in flight: it returns the event the call
// waits for next, and once all have fired finishes the call and returns nil.
func (t *Thread) Pending() *sim.Event {
	for ; t.nw < len(t.waits); t.nw++ {
		ev := t.waits[t.nw]
		if !ev.Fired() {
			return ev
		}
		ev.Unref()
	}
	if then := t.then; then != nil {
		then(t)
	}
	t.waits, t.one[0], t.then = nil, nil, nil
	return nil
}

// Calls returns the number of API calls the thread has made.
func (t *Thread) Calls() int { return t.calls }

// overhead charges the per-call CPU cost.
func (t *Thread) overhead() {
	t.calls++
	t.charge(t.rt.cfg.APIOverhead)
}

// SetDevice selects the target device for subsequent calls (cudaSetDevice).
func (t *Thread) SetDevice(dev int) error {
	t.overhead()
	if t.exited {
		return ErrThreadExited
	}
	if dev < 0 || dev >= len(t.rt.devices) {
		return ErrInvalidDevice
	}
	t.dev = dev
	return nil
}

// DeviceCount returns the number of visible devices (cudaGetDeviceCount).
func (t *Thread) DeviceCount() int {
	t.overhead()
	return len(t.rt.devices)
}

// Malloc allocates device memory (cudaMalloc).
func (t *Thread) Malloc(bytes int64) (Ptr, error) {
	t.overhead()
	if t.exited {
		return Ptr{}, ErrThreadExited
	}
	if bytes <= 0 {
		return Ptr{}, ErrInvalidValue
	}
	t.ctx()
	t.charge(t.rt.cfg.MallocLatency)
	var granted *sim.Event
	var err error
	if t.rt.cfg.BlockOnOOM {
		granted, err = t.rt.devices[t.dev].Reserve(bytes)
	} else {
		err = t.rt.devices[t.dev].Alloc(bytes)
	}
	if err != nil {
		return Ptr{}, fmt.Errorf("%w: %v", ErrMemoryAllocation, err)
	}
	t.nextID++
	p := Ptr{Dev: t.dev, ID: int64(t.appID)<<32 | t.nextID, Size: bytes}
	t.allocs = append(t.allocs, p)
	if granted != nil {
		t.awaitOne(granted, nil)
	}
	return p, nil
}

// Free releases device memory (cudaFree).
func (t *Thread) Free(p Ptr) error {
	t.overhead()
	i := slices.Index(t.allocs, p)
	if i < 0 {
		return ErrInvalidPtr
	}
	// Order within allocs carries no meaning (ThreadExit sorts), so the
	// removal is a swap with the tail.
	t.allocs[i] = t.allocs[len(t.allocs)-1]
	t.allocs = t.allocs[:len(t.allocs)-1]
	t.charge(t.rt.cfg.MallocLatency)
	t.rt.devices[p.Dev].Free(p.Size)
	return nil
}

// submit queues an op on the thread's current device and returns its
// completion event. Ops arriving here come from the device's free list; their
// completion events are drawn from the kernel's. The reference on a pooled
// completion event is owned by the stream's lastOp slot: it is released when
// a newer op replaces it, or when the stream is destroyed.
func (t *Thread) submit(op *gpu.Op, s StreamID) (*sim.Event, error) {
	pc := t.ctx()
	st, err := pc.stream(s)
	if err != nil {
		t.rt.devices[t.dev].PutOp(op)
		return nil, err
	}
	op.AppID = t.appID
	if op.Done == nil {
		op.Done = t.rt.k.NewPooledEvent()
	}
	ev := st.Submit(op)
	i := pc.at(s)
	if old := pc.lastOp[i]; old != nil {
		old.Unref()
	}
	pc.lastOp[i] = ev
	return ev, nil
}

// Memcpy is a synchronous host↔device copy (cudaMemcpy).
func (t *Thread) Memcpy(dir Dir, p Ptr, bytes int64) error {
	t.overhead()
	if t.exited {
		return ErrThreadExited
	}
	if bytes <= 0 || bytes > p.Size {
		return ErrInvalidValue
	}
	kind := gpu.OpH2D
	if dir == D2H {
		kind = gpu.OpD2H
	}
	op := t.rt.devices[t.dev].GetOp(kind)
	op.Bytes = bytes
	ev, err := t.submit(op, DefaultStream)
	if err != nil {
		return err
	}
	// Hold a reference across the wait so a concurrent submit on the same
	// stream cannot release the event's last reference while we are parked.
	ev.Ref()
	t.awaitOne(ev, nil)
	return nil
}

// MemcpyAsync is the stream-ordered asynchronous copy (cudaMemcpyAsync).
func (t *Thread) MemcpyAsync(dir Dir, p Ptr, bytes int64, s StreamID) error {
	t.overhead()
	if t.exited {
		return ErrThreadExited
	}
	if bytes <= 0 || bytes > p.Size {
		return ErrInvalidValue
	}
	kind := gpu.OpH2D
	if dir == D2H {
		kind = gpu.OpD2H
	}
	op := t.rt.devices[t.dev].GetOp(kind)
	op.Bytes = bytes
	_, err := t.submit(op, s)
	return err
}

// Launch enqueues a kernel on a stream, asynchronously (cudaLaunch).
func (t *Thread) Launch(k Kernel, s StreamID) error {
	t.overhead()
	if t.exited {
		return ErrThreadExited
	}
	if k.Compute < 0 || k.MemTraffic < 0 {
		return ErrInvalidValue
	}
	op := t.rt.devices[t.dev].GetOp(gpu.OpKernel)
	op.Compute = k.Compute
	op.MemTraffic = k.MemTraffic
	op.Occupancy = k.Occupancy
	_, err := t.submit(op, s)
	return err
}

// StreamCreate creates a stream (cudaStreamCreate).
func (t *Thread) StreamCreate() (StreamID, error) {
	t.overhead()
	if t.exited {
		return 0, ErrThreadExited
	}
	pc := t.ctx()
	id := pc.next
	pc.next++
	pc.setStream(id, pc.ctx.NewStream())
	return id, nil
}

// StreamSynchronize waits for the stream's work (cudaStreamSynchronize).
func (t *Thread) StreamSynchronize(s StreamID) error {
	t.overhead()
	pc := t.ctx()
	if !pc.hasStream(s) && s != DefaultStream {
		return ErrInvalidStream
	}
	t.awaitLast(pc, s, nil)
	return nil
}

// awaitLast is await on the newest op of stream s, if any.
func (t *Thread) awaitLast(pc *procCtx, s StreamID, then func(*Thread)) {
	if ev := pc.last(s); ev != nil {
		ev.Ref()
		t.awaitOne(ev, then)
		return
	}
	t.await(nil, then)
}

// StreamDestroy destroys a stream once its work is done (cudaStreamDestroy).
func (t *Thread) StreamDestroy(s StreamID) error {
	t.overhead()
	pc := t.ctx()
	if s == DefaultStream {
		return ErrInvalidValue
	}
	if !pc.hasStream(s) {
		return ErrInvalidStream
	}
	// CUDA's cudaStreamDestroy waits for the stream's outstanding work.
	t.sid = s
	t.awaitLast(pc, s, (*Thread).destroyed)
	return nil
}

// destroyed ends StreamDestroy once the stream has drained. The stream leaves
// the device's dispatch scan too, or a packed context accretes one dead stream
// per application served.
func (t *Thread) destroyed() {
	pc := t.rt.ctxs[t.dev]
	i := pc.at(t.sid)
	if len(t.waits) == 1 {
		t.waits[0].Unref() // the lastOp slot's own reference; the wait released the other
		pc.lastOp[i] = nil
	}
	pc.ctx.DestroyStream(pc.streams[i])
	pc.dropStream(t.sid)
}

// DeviceSynchronize blocks until all of the process's work on the current
// device has completed, across all of its streams (cudaDeviceSynchronize).
func (t *Thread) DeviceSynchronize() error {
	t.overhead()
	t.syncDevice((*Thread).synced)
	return nil
}

// syncDevice waits for the newest op of every stream of the process on the
// current device, then does then, which starts with synced.
func (t *Thread) syncDevice(then func(*Thread)) {
	pc := t.ctx()
	// Collect first (holding references): waiting can replace lastOps from
	// other threads; device sync covers work queued as of the call. The dense
	// table iterates in ascending StreamID order, keeping the wait order of
	// the sorted-map-keys code this replaces. The list is the thread's own,
	// so syncs of other threads on the same packed context can overlap it;
	// one stream's wait needs none.
	evs := t.one[:0]
	if len(pc.live) > 1 {
		if cap(t.syncs) < len(pc.live) {
			t.syncs = make([]*sim.Event, 0, 2*len(pc.live))
		}
		evs = t.syncs
	}
	for _, id := range pc.live {
		if ev := pc.lastOp[pc.at(id)]; ev != nil {
			ev.Ref()
			evs = append(evs, ev)
		}
	}
	t.await(evs, then)
}

// synced ends a device-wide synchronize: the wait list drops its events.
func (t *Thread) synced() { clear(t.waits) }

// EventCreate creates a timing event (cudaEventCreate).
func (t *Thread) EventCreate() (EventID, error) {
	t.overhead()
	if t.exited {
		return 0, ErrThreadExited
	}
	pc := t.ctx()
	if pc.events == nil {
		pc.events = make(map[EventID]*eventRec)
	}
	id := pc.nextEv
	pc.nextEv++
	pc.events[id] = &eventRec{}
	return id, nil
}

// EventRecord enqueues the event as a zero-cost marker op on the stream
// (cudaEventRecord); its timestamp is the virtual time the device completes
// it.
func (t *Thread) EventRecord(e EventID, s StreamID) error {
	t.overhead()
	if t.exited {
		return ErrThreadExited
	}
	pc := t.ctx()
	rec, ok := pc.events[e]
	if !ok {
		return ErrInvalidEvent
	}
	// Markers are retained past completion (EventElapsed reads their timing
	// long after they finish), so neither the op nor its Done event may come
	// from a free list.
	op := &gpu.Op{Kind: gpu.OpMarker, Done: t.rt.k.NewEvent()}
	if _, err := t.submit(op, s); err != nil {
		return err
	}
	rec.marker = op
	return nil
}

// EventSynchronize waits for the event's marker (cudaEventSynchronize).
func (t *Thread) EventSynchronize(e EventID) error {
	t.overhead()
	pc := t.ctx()
	rec, ok := pc.events[e]
	if !ok {
		return ErrInvalidEvent
	}
	if rec.marker == nil {
		return ErrNotReady
	}
	t.awaitOne(rec.marker.Done, nil) // a marker's event is not pooled: it needs no reference
	return nil
}

// EventElapsed returns the device time between two completed events
// (cudaEventElapsedTime).
func (t *Thread) EventElapsed(start, end EventID) (sim.Time, error) {
	t.overhead()
	pc := t.ctx()
	a, okA := pc.events[start]
	b, okB := pc.events[end]
	if !okA || !okB {
		return 0, ErrInvalidEvent
	}
	if a.marker == nil || b.marker == nil ||
		!a.marker.Done.Fired() || !b.marker.Done.Fired() {
		return 0, ErrNotReady
	}
	d := b.marker.Finished - a.marker.Finished
	if d < 0 {
		// end was recorded before start: cudaEventElapsedTime reports
		// cudaErrorInvalidValue rather than a negative duration.
		return 0, ErrInvalidValue
	}
	return d, nil
}

// EventDestroy releases the event (cudaEventDestroy).
func (t *Thread) EventDestroy(e EventID) error {
	t.overhead()
	pc := t.ctx()
	if _, ok := pc.events[e]; !ok {
		return ErrInvalidEvent
	}
	delete(pc.events, e)
	return nil
}

// ThreadExit tears down the calling thread's CUDA state (cudaThreadExit):
// outstanding work is synchronized and the thread's allocations are released.
func (t *Thread) ThreadExit() error {
	if t.exited {
		return ErrThreadExited
	}
	t.overhead()
	t.syncDevice((*Thread).exit)
	return nil
}

// exit ends ThreadExit: the thread's allocations are released.
func (t *Thread) exit() {
	t.synced()
	// Free in (device, allocation-id) order: Free itself is additive, but
	// releasing in arrival order would make any future accounting hook on the
	// free path depend on the swap-removals Free performed.
	slices.SortFunc(t.allocs, func(a, b Ptr) int {
		if a.Dev != b.Dev {
			return a.Dev - b.Dev
		}
		return int(a.ID - b.ID)
	})
	for _, p := range t.allocs {
		t.rt.devices[p.Dev].Free(p.Size)
	}
	t.allocs = t.allocs[:0]
	t.exited = true
}
