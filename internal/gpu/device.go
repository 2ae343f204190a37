package gpu

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Device is a simulated GPU. Work is submitted on streams belonging to
// contexts; a driver daemon multiplexes contexts onto the hardware (only the
// resident context's ops execute), dispatches stream-head ops onto the
// compute and copy engines, and advances a processor-sharing model of
// concurrent kernel execution.
type Device struct {
	k    *sim.Kernel
	spec Spec
	id   int

	contexts []*Context // the live ones, in id order
	nextCtx  int        // the id the next context gets
	spares   *Spares    // where destroyed contexts go (SetSpares); nil: nowhere
	resident *Context
	residing sim.Time // when the resident context became resident
	draining bool     // stop dispatching: waiting to switch contexts

	drv       sim.Daemon
	switching *Context // mid context switch: becomes resident when the driver's sleep ends
	closed    bool

	nameFn func() string // its driver's name and step, bound once
	stepFn func(*sim.Daemon)

	// Compute engine: the set of concurrently running kernels under a
	// uniform processor-sharing slowdown.
	running  []*Op
	slowdown float64
	lastEval sim.Time

	// Copy engines. With one copy engine both directions share h2d.
	h2d copyEngine
	d2h copyEngine

	memUsed      int64
	memHighWater int64
	memQ         sim.Ring[memWaiter] // admission-control FIFO (Reserve)

	tracer     *UtilTrace
	onComplete func(*Op)
	opFree     []*Op // recycled pool-managed ops (see GetOp)

	// Accounting.
	busyCompute float64 // integral of compute utilization (microseconds)
	busyBW      float64 // integral of bandwidth utilization (microseconds)
	switches    int
	switchTime  sim.Time
	kernelsDone int
	copiesDone  int
	apps        map[int]*AppAcct
	acctFree    []AppAcct   // records not yet handed out by Acct
	acctChunks  [][]AppAcct // the chunks acctFree is carved from, kept by Init
	acctNext    int         // the next of them to carve
}

// AppAcct is one application's accounting on a device, a handle valid for the
// device's lifetime: dispatched ops and the device scheduler hold it.
type AppAcct struct {
	service  float64 // attained GPU service, microseconds
	xferTime float64 // attained copy-engine time
	memTraf  float64 // device-memory traffic, bytes
	switches float64 // context-switch cost charged
	served   bool    // service was recorded: the application appears in AppIDs
}

type copyEngine struct {
	queue   sim.Ring[*Op]
	cur     *Op
	curDone sim.Time
	busy    float64 // integral of busy time
}

// NewDevice creates a device with the given spec and identifier and starts
// its driver daemon on k.
func NewDevice(k *sim.Kernel, spec Spec, id int) *Device { return new(Device).Init(k, spec, id) }

// Init makes *d, new or reused once its kernel has been reset or closed, the
// device NewDevice(k, spec, id) returns, keeping its op free list, accounting
// records and ring arrays; what a horizon left on it is reclaimed first.
// It returns d.
func (d *Device) Init(k *sim.Kernel, spec Spec, id int) *Device {
	d.reclaim()
	if d.apps == nil {
		d.apps = make(map[int]*AppAcct)
	}
	clear(d.apps)
	for _, c := range d.acctChunks {
		clear(c)
	}
	d.memQ.Reset()
	*d = Device{
		k: k, spec: spec.normalized(), id: id, slowdown: 1,
		contexts: d.contexts[:0], running: d.running[:0],
		h2d: copyEngine{queue: d.h2d.queue}, d2h: copyEngine{queue: d.d2h.queue}, memQ: d.memQ,
		opFree: d.opFree, apps: d.apps, acctChunks: d.acctChunks,
		nameFn: d.nameFn, stepFn: d.stepFn,
	}
	if d.stepFn == nil {
		d.nameFn, d.stepFn = d.name, d.driver
	}
	k.StartDaemon(&d.drv, d.nameFn, d.stepFn)
	return d
}

func (d *Device) name() string { return fmt.Sprintf("gpu%d-driver", d.id) }

// reclaim gives the ops a run left in flight to the op free list, and its
// contexts, live or retired, with their streams to the spare list.
func (d *Device) reclaim() {
	for _, op := range d.running {
		d.PutOp(op)
	}
	for _, e := range []*copyEngine{&d.h2d, &d.d2h} {
		d.PutOp(e.cur)
		for e.queue.Len() > 0 {
			d.PutOp(e.queue.Pop())
		}
	}
	for _, c := range d.contexts {
		for _, s := range c.streams {
			for s.queue.Len() > 0 {
				d.PutOp(s.queue.Pop())
			}
			s.busy, s.listed = false, false
		}
		c.shelve()
		clear(c.ready)
		c.ready, c.pending = c.ready[:0], 0
		d.spare(c)
	}
	for _, c := range [...]*Context{d.resident, d.switching} {
		if c != nil && c.retired {
			d.spare(c)
		}
	}
}

// ID returns the device's local identifier.
func (d *Device) ID() int { return d.id }

// Spec returns the device's capabilities.
func (d *Device) Spec() Spec { return d.spec }

// SetTracer installs a utilization tracer, which then receives every
// utilization segment as the device state evolves. Pass nil to disable.
func (d *Device) SetTracer(t *UtilTrace) { d.tracer = t }

// SetOnComplete installs a completion callback invoked for every finished op
// (after its Done event fires). Used by the Request Monitor.
func (d *Device) SetOnComplete(fn func(*Op)) { d.onComplete = fn }

// Close shuts the driver down once it next wakes. Pending work is abandoned.
func (d *Device) Close() {
	d.closed = true
	d.wake()
}

// Context is a GPU protection domain. Ops from different contexts never
// execute concurrently; switching the resident context costs
// Spec.ContextSwitch.
type Context struct {
	dev        *Device // nil while the context is spare
	id         int
	streams    []*Stream
	spare      []*Stream // destroyed streams, for NewStream to reuse
	ready      []*Stream // the streams with an op to dispatch, in id order (Stream.list)
	nextStream int
	pending    int  // ops queued or running
	retired    bool // destroyed while resident: spare once residency moves on

	// Owner attributes the context to an application (-1 when shared).
	// When the driver switches to an owned context, the switch cost is
	// charged to the owner's attained service — exactly the accounting
	// error the paper identifies in per-process-context schedulers.
	Owner int
}

// Spares is a free list of destroyed contexts and of the streams they had,
// for the devices that share it to reuse. Devices on one kernel may share
// one (SetSpares), so that a context outlives the device it was made on; the
// zero Spares is empty. The streams are pooled apart from the contexts, so
// that a context that served few streams does not keep a packed one's.
type Spares struct {
	ctxs    []*Context
	streams []*Stream
}

// Len returns the number of spare contexts.
func (sp *Spares) Len() int { return len(sp.ctxs) }

// SetSpares makes the device destroy contexts into sp and create them from
// it. A device without one leaves its destroyed contexts to the collector.
func (d *Device) SetSpares(sp *Spares) { d.spares = sp }

// NewContext creates a context on the device, under the next id, reusing a
// spare one and its streams. Ids rise, so creation order is id order.
func (d *Device) NewContext() *Context {
	var c *Context
	if sp := d.spares; sp != nil && len(sp.ctxs) > 0 {
		n := len(sp.ctxs)
		c, sp.ctxs = sp.ctxs[n-1], sp.ctxs[:n-1]
	} else {
		c = &Context{}
	}
	c.dev, c.id, c.nextStream, c.Owner = d, d.nextCtx, 0, -1
	d.nextCtx++
	d.contexts = append(d.contexts, c) // bounded by peak live contexts
	return c
}

// Contexts returns how many contexts the device lists: created and not
// destroyed.
func (d *Device) Contexts() int { return len(d.contexts) }

// DestroyContext removes an idle context from the device with its streams,
// the counterpart of DestroyStream for a process that has exited, so that
// the device does not scan one dead context per process it has served. The
// context leaves the device's list at once, and becomes spare for NewContext
// on any device sharing the spare list once it is neither resident nor being
// switched to: the driver compares the next context with the resident one to
// decide whether a switch is charged. A context with queued or running work
// is left in place.
func (d *Device) DestroyContext(c *Context) {
	if c == nil || c.dev != d || c.retired || c.pending > 0 {
		return
	}
	i := slices.Index(d.contexts, c)
	d.contexts = slices.Delete(d.contexts, i, i+1)
	c.shelve()
	if c == d.resident || c == d.switching {
		c.retired = true
		return
	}
	d.spare(c)
}

// shelve moves the context's streams to its spare list.
func (c *Context) shelve() {
	for _, s := range c.streams {
		s.ctx = nil
	}
	c.spare = append(c.spare, c.streams...) // bounded by peak live streams
	clear(c.streams)
	c.streams = c.streams[:0]
}

// spare gives a destroyed context to the spare list.
func (d *Device) spare(c *Context) {
	c.dev, c.retired = nil, false
	if d.spares != nil {
		d.spares.ctxs = append(d.spares.ctxs, c)                // bounded by peak live contexts
		d.spares.streams = append(d.spares.streams, c.spare...) // bounded by peak live streams
		clear(c.spare)
		c.spare = c.spare[:0]
	}
}

// Stream is an in-order op queue within a context; ops on different streams
// of the resident context execute concurrently.
type Stream struct {
	ctx    *Context
	id     int
	queue  sim.Ring[*Op]
	busy   bool // head op dispatched to an engine and not yet finished
	listed bool // on its context's ready list

	acct    *AppAcct // of the application whose op it dispatched last
	acctApp int
}

// acctFor returns appID's accounting record: a stream serves one application
// at a time, so dispatch looks one up per application, not per op.
func (s *Stream) acctFor(appID int) *AppAcct {
	if s.acct == nil || s.acctApp != appID {
		s.acct, s.acctApp = s.ctx.dev.Acct(appID), appID
	}
	return s.acct
}

// list puts s on its context's ready list, in id order, if it is neither
// busy nor empty and not there already. Submit and finish call it; dispatch
// walks the list and takes off what it leaves busy or empty, so the list is
// always the streams the driver has something to look at.
func (s *Stream) list() {
	if s.listed || s.busy || s.queue.Len() == 0 {
		return
	}
	s.listed = true
	c := s.ctx
	i := len(c.ready)
	c.ready = append(c.ready, s) // bounded by the context's live streams
	for ; i > 0 && c.ready[i-1].id > s.id; i-- {
		c.ready[i] = c.ready[i-1]
	}
	c.ready[i] = s
}

// NewStream creates a stream in the context, under the next id, reusing a
// destroyed one and its op ring, the context's or a spare one. Ids rise, so
// creation order is id order.
func (c *Context) NewStream() *Stream {
	var s *Stream
	if n := len(c.spare); n > 0 {
		s, c.spare = c.spare[n-1], c.spare[:n-1]
	} else if sp := c.dev.spares; sp != nil && len(sp.streams) > 0 {
		n := len(sp.streams)
		s, sp.streams = sp.streams[n-1], sp.streams[:n-1]
	} else {
		s = &Stream{}
	}
	// A spare stream may have served another device, where its application's
	// id meant another record: its accounting cache starts over.
	s.ctx, s.id, s.acct = c, c.nextStream, nil
	c.nextStream++
	c.streams = append(c.streams, s)
	return s
}

// DestroyStream removes a drained stream from the context, so that a
// long-lived packed context does not accrete one dead stream per application
// served. Only idle streams are removed (the CUDA layer drains a stream
// before destroying it), and an idle stream is on no ready list; a stream
// with queued or in-flight work is left in place.
func (c *Context) DestroyStream(s *Stream) {
	if s == nil || s.ctx != c || s.busy || s.queue.Len() > 0 {
		return
	}
	for i, x := range c.streams {
		if x == s {
			// Splice, preserving creation order, which is id order.
			c.streams = append(c.streams[:i], c.streams[i+1:]...)
			break
		}
	}
	s.ctx = nil
	c.spare = append(c.spare, s) // bounded by peak live streams
}

// Submit enqueues op on the stream and returns the op's completion event.
// The op executes after all earlier ops on the same stream, when the stream's
// context is resident and an engine is available.
func (s *Stream) Submit(op *Op) *sim.Event {
	d := s.ctx.dev
	if op.Done == nil {
		op.Done = d.k.NewEvent() // cold fallback for unpooled ops (markers, tests); the op path arrives with a pooled Done
	}
	op.stream = s
	op.Enqueued = d.k.Now()
	s.queue.Push(op)
	s.list()
	s.ctx.pending++
	d.wake()
	return op.Done
}

// GetOp returns an op of the given kind drawn from the device's free list.
// Pool-managed ops are recycled automatically when they finish, so the caller
// must not retain the op past its Done event (retain the event instead, or
// build on unpooled &Op{} literals — markers, tests — which are never
// recycled).
func (d *Device) GetOp(kind OpKind) *Op {
	if n := len(d.opFree); n > 0 {
		op := d.opFree[n-1]
		d.opFree[n-1] = nil
		d.opFree = d.opFree[:n-1]
		op.Kind = kind
		return op
	}
	return &Op{Kind: kind, pooled: true}
}

// PutOp returns a pool-managed op that was never submitted (an error path) to
// the free list. A no-op for unpooled ops.
func (d *Device) PutOp(op *Op) {
	if op != nil && op.pooled {
		d.recycleOp(op)
	}
}

// recycleOp zeroes a pooled op and returns it to the free list.
func (d *Device) recycleOp(op *Op) {
	*op = Op{pooled: true}
	d.opFree = append(d.opFree, op) // free-list growth is amortized, bounded by peak in-flight ops
}

// Alloc reserves device memory, failing when capacity would be exceeded
// (the paper's λ assumption keeps this from happening in the experiments;
// the guard catches violations).
func (d *Device) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpu%d: negative allocation %d", d.id, bytes)
	}
	if d.memUsed+bytes > d.spec.MemBytes {
		return fmt.Errorf("gpu%d: out of device memory: %d used + %d requested > %d",
			d.id, d.memUsed, bytes, d.spec.MemBytes)
	}
	d.memUsed += bytes
	if d.memUsed > d.memHighWater {
		d.memHighWater = d.memUsed
	}
	return nil
}

// memWaiter is one queued Reserve request. The granter (Free) reserves the
// capacity on the waiter's behalf before firing done, so a woken waiter never
// re-checks — and a late small request can never slip in between the free and
// the head waiter's wake-up.
type memWaiter struct {
	bytes int64
	done  *sim.Event
}

// Reserve reserves device memory for a caller that can wait: it takes bytes
// now and returns nil, or queues the request in strict FIFO order and returns
// the event Free fires once it has reserved them for it. The caller holds the
// event's one reference and releases it after the wait. It only fails on
// invalid sizes (a request larger than the device can ever satisfy, or
// negative). This is the memory-pressure admission control the paper leaves
// as future work ("with virtual memory support, Strings can eliminate the
// assumption on the maximum rate of request arrivals").
//
// FIFO here is head-of-line reservation, not wake-all-and-race: a request
// joins the queue whenever the queue is non-empty — even if its own bytes
// would fit right now — and capacity freed by Free is handed to queued
// waiters in arrival order. The earlier wake-everyone-and-recheck scheme let
// any late small request take freed capacity ahead of the FIFO head, so a
// large blocked allocation could starve indefinitely under steady small
// traffic (regression-tested in TestAllocBlockingNoHeadOfLineBypass).
func (d *Device) Reserve(bytes int64) (*sim.Event, error) {
	if bytes < 0 || bytes > d.spec.MemBytes {
		return nil, fmt.Errorf("gpu%d: unsatisfiable allocation %d of %d",
			d.id, bytes, d.spec.MemBytes)
	}
	if d.memQ.Len() == 0 && d.memUsed+bytes <= d.spec.MemBytes {
		d.memUsed += bytes
		if d.memUsed > d.memHighWater {
			d.memHighWater = d.memUsed
		}
		return nil, nil
	}
	w := memWaiter{bytes: bytes, done: d.k.NewPooledEvent()}
	d.memQ.Push(w)
	return w.done, nil
}

// grantMemWaiters hands freed capacity to parked allocations in FIFO order,
// stopping at the first waiter that still does not fit (no bypass).
func (d *Device) grantMemWaiters() {
	for d.memQ.Len() > 0 {
		w := d.memQ.Front()
		if d.memUsed+w.bytes > d.spec.MemBytes {
			return
		}
		d.memQ.Pop()
		d.memUsed += w.bytes
		if d.memUsed > d.memHighWater {
			d.memHighWater = d.memUsed
		}
		w.done.Fire()
	}
}

// Free releases device memory and grants it to admission-control waiters in
// FIFO order.
func (d *Device) Free(bytes int64) {
	d.memUsed -= bytes
	if d.memUsed < 0 {
		panic(fmt.Sprintf("gpu%d: freed more memory than allocated", d.id))
	}
	d.grantMemWaiters()
}

// MemUsed returns the bytes currently allocated.
func (d *Device) MemUsed() int64 { return d.memUsed }

// wake kicks the driver.
func (d *Device) wake() { d.drv.Kick() }

// driver is one step of the device's multiplexing and dispatch loop: it
// re-evaluates until nothing changes at this instant, then waits for the
// next projected completion or a kick. A context switch that costs time ends
// the step in a Sleep; the step after it starts in finishSwitch.
func (d *Device) driver(dm *sim.Daemon) {
	now := dm.Now()
	if d.switching != nil {
		d.finishSwitch(now)
	}
	for {
		if d.closed {
			dm.Exit()
			return
		}
		d.advance(now)
		if d.reap(now) {
			continue // completions change the engine sets; re-evaluate
		}
		if d.trySwitch(now) {
			if d.spec.ContextSwitch > 0 {
				dm.Sleep(d.spec.ContextSwitch)
				return
			}
			d.finishSwitch(now)
			continue // residency changed
		}
		if d.dispatch(now) {
			continue // dispatch changes the slowdown; re-evaluate
		}
		next, ok := d.nextWake()
		if !ok {
			dm.WaitKick()
			return
		}
		if next <= now {
			continue
		}
		dm.WaitKickTimeout(next - now)
		return
	}
}

// advance progresses the processor-sharing kernels and utilization integrals
// from lastEval to now.
func (d *Device) advance(now sim.Time) {
	elapsed := float64(now - d.lastEval)
	if elapsed <= 0 {
		d.lastEval = now
		return
	}
	var sumCPU, sumBW float64
	for _, op := range d.running {
		sumCPU += op.demandCPU
		sumBW += op.demandBW
	}
	cu := sumCPU / d.slowdown
	bu := sumBW / d.slowdown
	if d.tracer != nil {
		copies := 0
		if d.h2d.cur != nil {
			copies++
		}
		if d.d2h.cur != nil {
			copies++
		}
		rc := -1
		if d.resident != nil {
			rc = d.resident.id
		}
		d.tracer.Segment(d.lastEval, now, cu, bu, copies, rc)
	}
	d.busyCompute += elapsed * cu
	d.busyBW += elapsed * bu
	for _, op := range d.running {
		op.remaining -= elapsed / (op.soloDur * d.slowdown)
		if op.remaining < 0 {
			op.remaining = 0
		}
		a := op.acct
		a.service += elapsed / d.slowdown
		a.served = true
	}
	if d.h2d.cur != nil {
		d.h2d.busy += elapsed
	}
	if d.d2h.cur != nil {
		d.d2h.busy += elapsed
	}
	d.lastEval = now
}

// reap completes ops that are due at now; it reports whether any finished.
func (d *Device) reap(now sim.Time) bool {
	done := false
	// Kernels.
	for i := 0; i < len(d.running); {
		op := d.running[i]
		if op.finishAt(now, d.slowdown) <= now {
			d.running = append(d.running[:i], d.running[i+1:]...)
			d.kernelsDone++
			op.acct.memTraf += op.MemTraffic
			d.finish(op, now)
			done = true
		} else {
			i++
		}
	}
	if done {
		d.recomputeSlowdown()
	}
	// Copies.
	for _, e := range []*copyEngine{&d.h2d, &d.d2h} {
		if e.cur != nil && e.curDone <= now {
			op := e.cur
			e.cur = nil
			d.copiesDone++
			a := op.acct
			a.xferTime += float64(now - op.Started)
			a.service += float64(now - op.Started)
			a.served = true
			d.finish(op, now)
			done = true
		}
	}
	return done
}

// Acct returns appID's accounting record, creating it on first use.
func (d *Device) Acct(appID int) *AppAcct {
	a := d.apps[appID]
	if a == nil {
		if len(d.acctFree) == 0 {
			if d.acctNext == len(d.acctChunks) {
				// As many records again as are in use, so a device that
				// serves a handful of applications holds a handful and one
				// that serves thousands allocates rarely.
				n := min(max(len(d.apps), 4), 256)
				d.acctChunks = append(d.acctChunks, make([]AppAcct, n)) // bounded by the records in use
			}
			d.acctFree = d.acctChunks[d.acctNext]
			d.acctNext++
		}
		a = &d.acctFree[0]
		d.acctFree = d.acctFree[1:]
		d.apps[appID] = a
	}
	return a
}

// finish records completion, releases the stream head, fires Done.
func (d *Device) finish(op *Op, now sim.Time) {
	op.Finished = now
	op.running = false
	s := op.stream
	s.busy = false
	s.list()
	s.ctx.pending--
	op.Done.Fire()
	if d.onComplete != nil {
		d.onComplete(op)
	}
	if op.pooled {
		d.recycleOp(op)
	}
}

// finishAt projects when a running kernel completes under slowdown s.
func (o *Op) finishAt(now sim.Time, s float64) sim.Time {
	if o.remaining <= 0 {
		return now
	}
	return now + sim.Time(o.remaining*o.soloDur*s+0.9999)
}

// recomputeSlowdown refreshes the uniform processor-sharing slowdown from the
// current running set.
func (d *Device) recomputeSlowdown() {
	var sumCPU, sumBW float64
	for _, op := range d.running {
		sumCPU += op.demandCPU
		sumBW += op.demandBW
	}
	s := 1.0
	if sumCPU > s {
		s = sumCPU
	}
	if sumBW > s {
		s = sumBW
	}
	d.slowdown = s
}

// busyNow reports whether any engine is executing resident-context work.
func (d *Device) busyNow() bool {
	return len(d.running) > 0 || d.h2d.cur != nil || d.d2h.cur != nil
}

// trySwitch evaluates driver-level context multiplexing. It returns true if
// it began a switch to d.switching, which the driver completes with
// finishSwitch once Spec.ContextSwitch has passed.
func (d *Device) trySwitch(now sim.Time) bool {
	next := d.nextPendingContext()
	if next == nil {
		d.draining = false
		return false
	}
	if d.resident == nil {
		// First binding is free of the switch penalty (context creation cost
		// is modelled by the CUDA layer).
		d.resident = next
		d.residing = now
		d.draining = false
		return false
	}
	if next == d.resident {
		d.draining = false
		return false
	}
	wantSwitch := d.resident.pending == 0 ||
		(now-d.residing >= d.spec.TimeSlice)
	if !wantSwitch {
		d.draining = false
		return false
	}
	if d.busyNow() {
		// Ops are not preempted: stop feeding the engines and drain.
		d.draining = true
		return false
	}
	d.switches++
	d.switchTime += d.spec.ContextSwitch
	d.switching = next
	return true
}

// finishSwitch makes the context trySwitch chose resident.
func (d *Device) finishSwitch(now sim.Time) {
	next := d.switching
	d.switching = nil
	if old := d.resident; old.retired {
		d.spare(old)
	}
	d.advance(now)
	if next.Owner >= 0 {
		// The incoming context's owner "pays" for the switch, mirroring
		// the coarse accounting of per-process-context runtimes. The
		// charge is tracked separately so measurements can distinguish
		// delivered service from the scheduler's inflated view.
		d.Acct(next.Owner).switches += float64(d.spec.ContextSwitch)
	}
	d.resident = next
	d.residing = now
	d.draining = false
}

// nextPendingContext picks the context that should run next: the resident
// context if it still has work and its slice is valid, otherwise the next
// context with pending work in cyclic id order after the resident.
func (d *Device) nextPendingContext() *Context {
	start := 0
	if r := d.resident; r != nil {
		// Respect the slice: prefer the resident while it has work and
		// slice remains.
		if r.pending > 0 && d.k.Now()-d.residing < d.spec.TimeSlice {
			return r
		}
		// The live contexts are in id order; start after the resident's id,
		// which a destroyed resident keeps.
		for start < len(d.contexts) && d.contexts[start].id <= r.id {
			start++
		}
	}
	n := len(d.contexts)
	for i := 0; i < n; i++ {
		c := d.contexts[(start+i)%n]
		if c.pending > 0 {
			return c
		}
	}
	if d.resident != nil && d.resident.pending > 0 {
		return d.resident
	}
	return nil
}

// dispatch feeds stream-head ops of the resident context to the engines, in
// stream id order; it reports whether anything new was dispatched. It walks
// the ready list, not every stream, and keeps on it only the streams it
// leaves neither busy nor empty: a marker's successor, a kernel held back by
// the concurrency limit. Nothing it calls lists a stream meanwhile: a
// completion only schedules its waiters.
func (d *Device) dispatch(now sim.Time) bool {
	if d.resident == nil || d.draining {
		return false
	}
	dispatched := false
	c := d.resident
	kept := c.ready[:0]
	for _, s := range c.ready {
		if d.dispatchHead(s, now) {
			dispatched = true
		}
		if s.busy || s.queue.Len() == 0 {
			s.listed = false
		} else {
			kept = append(kept, s)
		}
	}
	clear(c.ready[len(kept):])
	c.ready = kept
	if dispatched {
		d.recomputeSlowdown()
		// Reset projected finish baselines: remaining already reflects the
		// new instant because advance ran first this iteration.
	}
	// Start idle copy engines.
	for _, e := range []*copyEngine{&d.h2d, &d.d2h} {
		if e.cur == nil && e.queue.Len() > 0 {
			op := e.queue.Pop()
			op.Started = now
			dur := op.copyDuration(&d.spec)
			op.SoloTime = dur
			op.running = true
			e.cur = op
			e.curDone = now + dur
			dispatched = true
		}
	}
	return dispatched
}

// dispatchHead feeds s's head op to its engine, or completes it if it is a
// marker, and reports whether it did.
func (d *Device) dispatchHead(s *Stream, now sim.Time) bool {
	op := s.queue.Front()
	switch op.Kind {
	case OpMarker:
		// Zero-cost stream marker: completes immediately in order.
		s.queue.Pop()
		op.Started = now
		d.finish(op, now)
	case OpKernel:
		if len(d.running) >= d.spec.MaxConcurrentKernels {
			// Fermi's concurrent-kernel limit: leave the op queued;
			// the driver re-evaluates when a kernel completes.
			return false
		}
		s.queue.Pop()
		s.busy = true
		op.acct = s.acctFor(op.AppID)
		op.kernelDemands(&d.spec)
		op.Started = now
		op.SoloTime = sim.Time(op.soloDur + 0.5)
		op.running = true
		d.running = append(d.running, op)
	case OpH2D, OpD2H:
		s.queue.Pop()
		s.busy = true
		op.acct = s.acctFor(op.AppID)
		d.engineFor(op.Kind).queue.Push(op)
	}
	return true
}

// engineFor returns the copy engine serving the given direction, honouring
// single-copy-engine devices.
func (d *Device) engineFor(k OpKind) *copyEngine {
	if d.spec.CopyEngines < 2 || k == OpH2D {
		return &d.h2d
	}
	return &d.d2h
}

// nextWake returns the earliest projected completion among running work.
func (d *Device) nextWake() (sim.Time, bool) {
	var t sim.Time
	ok := false
	now := d.k.Now()
	for _, op := range d.running {
		f := op.finishAt(now, d.slowdown)
		if !ok || f < t {
			t, ok = f, true
		}
	}
	for _, e := range []*copyEngine{&d.h2d, &d.d2h} {
		if e.cur != nil && (!ok || e.curDone < t) {
			t, ok = e.curDone, true
		}
	}
	return t, ok
}

// Stats is a snapshot of device accounting.
type Stats struct {
	Now          sim.Time
	ComputeBusy  sim.Time // integral of compute utilization
	BWBusy       sim.Time // integral of memory-bandwidth utilization
	H2DBusy      sim.Time
	D2HBusy      sim.Time
	Switches     int
	SwitchTime   sim.Time
	KernelsDone  int
	CopiesDone   int
	MemUsed      int64
	MemHighWater int64
}

// Stats returns a snapshot of the device's accounting, current to the last
// driver evaluation.
func (d *Device) Stats() Stats {
	return Stats{
		Now:          d.k.Now(),
		ComputeBusy:  sim.Time(d.busyCompute + 0.5),
		BWBusy:       sim.Time(d.busyBW + 0.5),
		H2DBusy:      sim.Time(d.h2d.busy + 0.5),
		D2HBusy:      sim.Time(d.d2h.busy + 0.5),
		Switches:     d.switches,
		SwitchTime:   d.switchTime,
		KernelsDone:  d.kernelsDone,
		CopiesDone:   d.copiesDone,
		MemUsed:      d.memUsed,
		MemHighWater: d.memHighWater,
	}
}

// AppUsage is one application's accounting on a device.
type AppUsage struct {
	Service      sim.Time // attained service: solo-equivalent execution time, kernels plus copies
	SwitchCharge sim.Time // context-switch cost charged to it, which a per-process-context runtime reads as service
	TransferTime sim.Time // the copy engines' part of Service
	MemTraffic   float64  // device-memory traffic (bytes) of its completed kernels
}

// AppUsage reads appID's accounting in one lookup, zero for an application
// never seen.
func (d *Device) AppUsage(appID int) AppUsage {
	a := d.apps[appID]
	if a == nil {
		return AppUsage{}
	}
	return a.Usage()
}

// Usage reads the record; the device scheduler samples it per entry per turn.
func (a *AppAcct) Usage() AppUsage {
	return AppUsage{
		Service:      sim.Time(a.service + 0.5),
		SwitchCharge: sim.Time(a.switches + 0.5),
		TransferTime: sim.Time(a.xferTime + 0.5),
		MemTraffic:   a.memTraf,
	}
}

// AppService returns the application's AppUsage.Service.
func (d *Device) AppService(appID int) sim.Time { return d.AppUsage(appID).Service }

// AppTransferTime returns the application's AppUsage.TransferTime.
func (d *Device) AppTransferTime(appID int) sim.Time { return d.AppUsage(appID).TransferTime }

// AppMemTraffic returns the application's AppUsage.MemTraffic.
func (d *Device) AppMemTraffic(appID int) float64 { return d.AppUsage(appID).MemTraffic }

// AppIDs returns the application ids with recorded service, sorted.
func (d *Device) AppIDs() []int {
	ids := make([]int, 0, len(d.apps))
	for id, a := range d.apps {
		if a.served {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}
