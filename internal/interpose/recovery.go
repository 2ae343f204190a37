package interpose

import (
	"fmt"
	"slices"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Recovery configures the interposer's failure handling. The zero value
// disables it entirely: no timeouts are armed, no bookkeeping runs, and the
// interposer behaves bit-identically to the pre-fault-tolerance code. With
// a CallTimeout set, every blocking RPC is guarded by a virtual-time
// timeout; idempotent calls are retransmitted with capped exponential
// backoff, and once the affinity mapper declares the backend Dead the
// interposer fails over to a replacement GPU, re-registers, replays its
// surviving state (allocations, streams, events) and re-issues the pending
// call. Non-retryable calls on a lost backend surface cuda.ErrBackendLost.
type Recovery struct {
	// CallTimeout bounds each blocking call's wait for a reply. 0 disables
	// recovery.
	CallTimeout sim.Time
}

const (
	// maxRetries is how many times a timed-out idempotent call is
	// retransmitted on the same connection before giving up: enough for
	// one frontend to drive the detector to Dead on its own.
	maxRetries = 3

	// The first retransmit waits backoffBase, doubling per attempt up to
	// backoffCap (virtual time).
	backoffBase = sim.Millisecond
	backoffCap  = 50 * sim.Millisecond
)

// Enabled reports whether recovery is on.
func (r Recovery) Enabled() bool { return r.CallTimeout > 0 }

// vPtr is one client-visible allocation's mapping onto the current backend.
type vPtr struct {
	bid  int64 // backend pointer id
	size int64
	dev  int32
}

// recState is the interposer's failure-handling state. In recovery mode the
// ids handed to the application are virtual: the interposer owns the
// namespace so that resources re-created on a replacement backend keep
// their client-visible identity.
type recState struct {
	cfg Recovery

	ptrs    map[int64]*vPtr // virtual ptr id → backend mapping
	streams map[int32]int32 // virtual stream id → backend stream id
	events  map[int32]int32 // virtual event id → backend event id
	nextPtr int64
	nextStr int32
	nextEvt int32

	timeouts  int
	failovers int
	disrupted bool // a timeout occurred since the last acknowledged success
}

// SetRecovery arms (or disarms) failure handling. Call before the first
// CUDA call.
func (ip *Interposer) SetRecovery(r Recovery) {
	if !r.Enabled() {
		ip.rec = recState{}
		return
	}
	ip.rec = recState{
		cfg:     r,
		ptrs:    make(map[int64]*vPtr),
		streams: make(map[int32]int32),
		events:  make(map[int32]int32),
	}
}

// Disrupted reports whether the application was touched by a backend
// failure at any point (timeout or failover).
func (ip *Interposer) Disrupted() bool {
	return ip.rec.timeouts > 0 || ip.rec.failovers > 0
}

// retryable reports whether a timed-out call may be retransmitted: the set
// of calls whose double execution is harmless (reads, copies, syncs and the
// idempotent registration/exit handshake). Resource-creating calls are
// excluded — a retransmitted Malloc that executed both times would leak the
// first allocation.
func retryable(id cuda.CallID) bool {
	switch id {
	case cuda.CallSetDevice, cuda.CallDeviceCount, cuda.CallMemcpy,
		cuda.CallStreamSync, cuda.CallDeviceSync, cuda.CallEventSync,
		cuda.CallEventElapsed, cuda.CallThreadExit:
		return true
	default:
		return false
	}
}

// internPtr assigns (or refreshes) the virtual id for a backend allocation.
func (ip *Interposer) internPtr(r *rpcproto.Reply) cuda.Ptr {
	if !ip.rec.cfg.Enabled() {
		return cuda.Ptr{Dev: int(r.PtrDev), ID: r.PtrID, Size: r.PtrSize}
	}
	ip.rec.nextPtr++
	vid := ip.rec.nextPtr
	ip.rec.ptrs[vid] = &vPtr{bid: r.PtrID, size: r.PtrSize, dev: r.PtrDev}
	return cuda.Ptr{Dev: int(r.PtrDev), ID: vid, Size: r.PtrSize}
}

// internStream assigns the virtual id for a backend stream.
func (ip *Interposer) internStream(bid int32) cuda.StreamID {
	if !ip.rec.cfg.Enabled() {
		return cuda.StreamID(bid)
	}
	ip.rec.nextStr++
	vid := ip.rec.nextStr
	ip.rec.streams[vid] = bid
	return cuda.StreamID(vid)
}

// internEvent assigns the virtual id for a backend event.
func (ip *Interposer) internEvent(bid int32) cuda.EventID {
	if !ip.rec.cfg.Enabled() {
		return cuda.EventID(bid)
	}
	ip.rec.nextEvt++
	vid := ip.rec.nextEvt
	ip.rec.events[vid] = bid
	return cuda.EventID(vid)
}

// forgetPtr / forgetStream / forgetEvent drop destroyed resources from the
// replay tables.
func (ip *Interposer) forgetPtr(vid int64) {
	if ip.rec.cfg.Enabled() {
		delete(ip.rec.ptrs, vid)
	}
}
func (ip *Interposer) forgetStream(vid cuda.StreamID) {
	if ip.rec.cfg.Enabled() {
		delete(ip.rec.streams, int32(vid))
	}
}
func (ip *Interposer) forgetEvent(vid cuda.EventID) {
	if ip.rec.cfg.Enabled() {
		delete(ip.rec.events, int32(vid))
	}
}

// wireCall rewrites a call's virtual resource ids into the current
// backend's ids. The original call keeps its virtual ids so a later attempt
// (after a failover changed the mappings) re-translates correctly.
func (ip *Interposer) wireCall(c *rpcproto.Call) *rpcproto.Call {
	w := *c
	switch c.ID {
	case cuda.CallFree, cuda.CallMemcpy, cuda.CallMemcpyAsync:
		if m, ok := ip.rec.ptrs[c.PtrID]; ok {
			w.PtrID, w.PtrDev = m.bid, m.dev
		}
	}
	if c.Stream != 0 {
		if bid, ok := ip.rec.streams[c.Stream]; ok {
			w.Stream = bid
		}
	}
	if c.Event != 0 {
		if bid, ok := ip.rec.events[c.Event]; ok {
			w.Event = bid
		}
	}
	if c.Event2 != 0 {
		if bid, ok := ip.rec.events[c.Event2]; ok {
			w.Event2 = bid
		}
	}
	return &w
}

// awaitReply waits for the reply matching seq, bounded by the call timeout.
// ok=false means the timeout expired.
func (ip *Interposer) awaitReply(seq uint64) (*rpcproto.Reply, bool, error) {
	for {
		msg, ok := ip.ep.RecvTimeout(ip.p, ip.rec.cfg.CallTimeout)
		if !ok {
			return nil, false, nil
		}
		r, isReply := msg.(*rpcproto.Reply)
		if !isReply {
			return nil, true, fmt.Errorf("interpose: unexpected message %T", msg)
		}
		if r.Seq == seq {
			return r, true, nil
		}
		if r.Seq > seq {
			return nil, true, fmt.Errorf("interpose: reply %d overtook call %d", r.Seq, seq)
		}
		// Stale reply from a retransmitted earlier call: skip.
	}
}

// sendReliable is the recovery-mode send path: non-blocking calls fire and
// forget; blocking calls are guarded by the call timeout, retransmitted if
// idempotent, and failed over once the mapper declares the backend Dead.
func (ip *Interposer) sendReliable(c *rpcproto.Call, blocking bool) (*rpcproto.Reply, error) {
	backoff := backoffBase
	sends := 0
	for {
		w := ip.wireCall(c)
		ip.ep.Send(ip.p, w, w.PayloadBytes())
		sends++
		if !blocking {
			return nil, nil
		}
		r, ok, err := ip.awaitReply(w.Seq)
		if err != nil {
			return nil, err
		}
		if ok {
			if ip.rec.disrupted {
				ip.rec.disrupted = false
				ip.fab.ReportRecovered(ip.gid)
			}
			return r, r.AsError()
		}

		// Timed out: feed the failure detector and decide between a
		// retransmit on the same connection and a failover.
		ip.rec.timeouts++
		ip.rec.disrupted = true
		ip.tr.Event(trace.KRetry, ip.p.Now(), c.ID.String(), ip.appID, int(ip.gid), int64(sends))
		health := ip.fab.ReportFailure(ip.p, ip.gid)
		if health == balancer.Dead {
			reg, err := ip.failover()
			if err != nil {
				return nil, err
			}
			if c.ID == cuda.CallSetDevice {
				// The pending call was the registration itself; the
				// failover's rebind already performed it.
				return reg, reg.AsError()
			}
			// Re-issue on the replacement backend under a fresh sequence
			// number (the new session has its own reply stream).
			ip.seq++
			c.Seq = ip.seq
			sends = 0
			backoff = backoffBase
			continue
		}
		if !retryable(c.ID) || sends > maxRetries {
			return nil, cuda.ErrBackendLost
		}
		ip.p.Sleep(backoff)
		backoff = min(2*backoff, backoffCap)
	}
}

// sendOnce issues one blocking call during rebind/replay, guarded by the
// call timeout but never retried (the failover loop handles failures by
// moving on to the next candidate backend).
func (ip *Interposer) sendOnce(c *rpcproto.Call) (*rpcproto.Reply, error) {
	ip.ep.Send(ip.p, c, c.PayloadBytes())
	r, ok, err := ip.awaitReply(c.Seq)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, cuda.ErrBackendLost
	}
	return r, r.AsError()
}

// failover releases the dead binding, asks the mapper for a replacement
// GPU, re-registers there and replays the application's surviving state —
// streams, allocations and events, in ascending virtual-id order — updating
// the virtual-id tables to the replacement's handles. It returns the
// registration reply. Device-resident data is not re-staged: the simulator
// carries no payloads, and a real implementation would restore it from
// host-side shadow copies at this point.
func (ip *Interposer) failover() (*rpcproto.Reply, error) {
	budget := ip.fab.PoolSize()
	var lastErr error = cuda.ErrBackendLost
	for attempt := 0; attempt < budget; attempt++ {
		// Release the failed binding and select a survivor. The DST row of
		// the dead device is already non-Healthy, so the policy skips it.
		ip.fab.ReportFeedback(ip.gid, ip.kind, nil)
		ip.selectGPU()
		ip.connect()

		reg, err := ip.rebind()
		if err == nil {
			ip.rec.failovers++
			ip.rec.disrupted = false
			ip.tr.Event(trace.KFailover, ip.p.Now(), ip.kind, ip.appID, int(ip.gid), int64(attempt+1))
			ip.tr.SetGID(ip.reqSpan, int(ip.gid))
			return reg, nil
		}
		lastErr = err
		_ = ip.fab.ReportFailure(ip.p, ip.gid)
	}
	return nil, lastErr
}

// rebind performs the registration handshake and state replay on the
// current endpoint.
func (ip *Interposer) rebind() (*rpcproto.Reply, error) {
	reg := ip.newCall(cuda.CallSetDevice)
	reg.Dev = int32(ip.gid)
	reg.KernelName = ip.kind
	rep, err := ip.sendOnce(reg)
	if err != nil {
		return nil, err
	}

	for _, vid := range sortedKeys(ip.rec.streams) {
		c := ip.newCall(cuda.CallStreamCreate)
		r, err := ip.sendOnce(c)
		if err != nil {
			return nil, err
		}
		ip.rec.streams[vid] = r.Stream
	}
	ptrVids := make([]int64, 0, len(ip.rec.ptrs))
	for vid := range ip.rec.ptrs {
		ptrVids = append(ptrVids, vid)
	}
	slices.Sort(ptrVids)
	for _, vid := range ptrVids {
		m := ip.rec.ptrs[vid]
		c := ip.newCall(cuda.CallMalloc)
		c.Bytes = m.size
		r, err := ip.sendOnce(c)
		if err != nil {
			return nil, err
		}
		m.bid, m.dev = r.PtrID, r.PtrDev
	}
	for _, vid := range sortedKeys(ip.rec.events) {
		c := ip.newCall(cuda.CallEventCreate)
		r, err := ip.sendOnce(c)
		if err != nil {
			return nil, err
		}
		ip.rec.events[vid] = r.Event
	}
	return rep, nil
}

// sortedKeys returns a virtual-id table's keys in ascending order.
func sortedKeys(m map[int32]int32) []int32 {
	ks := make([]int32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
