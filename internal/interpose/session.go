package interpose

import (
	"repro/internal/cuda"
	"repro/internal/sim"
)

// MTSession shares one interposer binding among several host threads of the
// same application. The paper's asynchrony optimization is only safe for
// single-threaded applications — non-blocking RPCs from separate threads
// could be dispatched out of the application-intended order (e.g. a
// cudaLaunch from one thread depending on a memcpy from another). MTSession
// implements the correction the paper prescribes: per-device buffer
// synchronization logic that serializes the threads' GPU operations into a
// single intended order on the shared connection.
type MTSession struct {
	ip *Interposer
	mu *sim.Mutex
}

// NewMTSession wraps an interposer for multi-threaded use. The interposer's
// creating thread may keep using it directly only via a Thread view.
func NewMTSession(k *sim.Kernel, ip *Interposer) *MTSession {
	ip.k = k
	return &MTSession{ip: ip, mu: k.NewMutex()}
}

// Thread returns a cuda.Client view for one host thread running on p. All
// views share the session's binding, stream table and device allocations.
func (s *MTSession) Thread(p *sim.Proc) cuda.Client {
	return &mtThread{s: s, p: p}
}

// mtThread is one host thread's serialized view of the session.
type mtThread struct {
	s *MTSession
	p *sim.Proc
}

// enter acquires the session's order lock and points the interposer at the
// calling thread; the simulation kernel's one-process-at-a-time execution
// makes the swap safe under the lock.
func (t *mtThread) enter() func() {
	t.s.mu.Lock(t.p)
	prev := t.s.ip.p
	t.s.ip.p = t.p
	return func() {
		t.s.ip.p = prev
		t.s.mu.Unlock()
	}
}

// Proc implements cuda.Client.
func (t *mtThread) Proc() *sim.Proc { return t.p }

// SetDevice implements cuda.Client.
func (t *mtThread) SetDevice(dev int) error {
	defer t.enter()()
	return t.s.ip.SetDevice(dev)
}

// DeviceCount implements cuda.Client.
func (t *mtThread) DeviceCount() int {
	defer t.enter()()
	return t.s.ip.DeviceCount()
}

// Malloc implements cuda.Client.
func (t *mtThread) Malloc(bytes int64) (cuda.Ptr, error) {
	defer t.enter()()
	return t.s.ip.Malloc(bytes)
}

// Free implements cuda.Client.
func (t *mtThread) Free(p cuda.Ptr) error {
	defer t.enter()()
	return t.s.ip.Free(p)
}

// Memcpy implements cuda.Client.
func (t *mtThread) Memcpy(dir cuda.Dir, p cuda.Ptr, bytes int64) error {
	defer t.enter()()
	return t.s.ip.Memcpy(dir, p, bytes)
}

// MemcpyAsync implements cuda.Client.
func (t *mtThread) MemcpyAsync(dir cuda.Dir, p cuda.Ptr, bytes int64, s cuda.StreamID) error {
	defer t.enter()()
	return t.s.ip.MemcpyAsync(dir, p, bytes, s)
}

// Launch implements cuda.Client.
func (t *mtThread) Launch(k cuda.Kernel, s cuda.StreamID) error {
	defer t.enter()()
	return t.s.ip.Launch(k, s)
}

// StreamCreate implements cuda.Client.
func (t *mtThread) StreamCreate() (cuda.StreamID, error) {
	defer t.enter()()
	return t.s.ip.StreamCreate()
}

// StreamSynchronize implements cuda.Client.
func (t *mtThread) StreamSynchronize(s cuda.StreamID) error {
	defer t.enter()()
	return t.s.ip.StreamSynchronize(s)
}

// StreamDestroy implements cuda.Client.
func (t *mtThread) StreamDestroy(s cuda.StreamID) error {
	defer t.enter()()
	return t.s.ip.StreamDestroy(s)
}

// DeviceSynchronize implements cuda.Client.
func (t *mtThread) DeviceSynchronize() error {
	defer t.enter()()
	return t.s.ip.DeviceSynchronize()
}

// EventCreate implements cuda.Client.
func (t *mtThread) EventCreate() (cuda.EventID, error) {
	defer t.enter()()
	return t.s.ip.EventCreate()
}

// EventRecord implements cuda.Client.
func (t *mtThread) EventRecord(e cuda.EventID, s cuda.StreamID) error {
	defer t.enter()()
	return t.s.ip.EventRecord(e, s)
}

// EventSynchronize implements cuda.Client.
func (t *mtThread) EventSynchronize(e cuda.EventID) error {
	defer t.enter()()
	return t.s.ip.EventSynchronize(e)
}

// EventElapsed implements cuda.Client.
func (t *mtThread) EventElapsed(start, end cuda.EventID) (sim.Time, error) {
	defer t.enter()()
	return t.s.ip.EventElapsed(start, end)
}

// EventDestroy implements cuda.Client.
func (t *mtThread) EventDestroy(e cuda.EventID) error {
	defer t.enter()()
	return t.s.ip.EventDestroy(e)
}

// ThreadExit implements cuda.Client. The session is shared, so only the
// last thread's exit tears the binding down; earlier exits are no-ops by
// convention of the callers (workload joins its threads before exiting).
func (t *mtThread) ThreadExit() error {
	defer t.enter()()
	return t.s.ip.ThreadExit()
}
