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

	// The call in flight's: the frame last sent (its wire form, or a
	// replay call), the sends so far and the wait before the next
	// retransmit.
	wire    *rpcproto.Call
	sends   int
	backoff sim.Time

	// A failover in progress: the attempts it may make and has made, the
	// error of the last, and the replay of the current one — the calls that
	// register on the replacement and re-create the virtual-id tables'
	// resources there, the one in flight first, and the registration's reply.
	failing  bool
	budget   int
	attempt  int
	lastErr  error
	replay   []replayCall
	regReply *rpcproto.Reply
}

// replayCall is one call of a failover's replay: the registration, or the
// re-creation of a stream, an allocation or an event, by virtual id.
type replayCall struct {
	id  cuda.CallID
	vid int64
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

// recover runs the recovery stages of the call in flight (see stage) and
// reports false once it ended d's step in a wait. Non-blocking calls fire and
// forget; blocking calls are guarded by the call timeout, retransmitted if
// idempotent, and failed over once the mapper declares the backend Dead.
// While a failover replays, the frame sent is the replay call in flight.
func (ip *Interposer) recover(d *sim.Daemon) bool {
	rec := &ip.rec
	switch ip.at {
	case relSend:
		rec.wire, ip.at = ip.wireCall(ip.inflight), txPaying
	case txPaying:
		ip.at = txPosting
		if cost := ip.ep.Cost(rec.wire, rec.wire.PayloadBytes()); cost > 0 {
			d.Sleep(cost)
			return false
		}
	case txPosting:
		ip.ep.Post(rec.wire)
		ip.at = txReplying
		if !rec.failing {
			rec.sends++
			if !ip.blocking {
				ip.finish(nil, nil)
			}
		}
	case txReplying:
		r, waiting, err := ip.await(d, rec.wire.Seq)
		switch {
		case waiting:
			return false
		case rec.failing:
			return ip.replayed(d, r, err)
		case r != nil || err != nil:
			if r != nil && rec.disrupted {
				rec.disrupted = false
				ip.fab.ReportRecovered(ip.gid)
			}
			ip.finish(r, err)
		default:
			// Timed out: feed the failure detector, then decide between a
			// retransmit on the same connection and a failover.
			rec.timeouts++
			rec.disrupted = true
			ip.tr.Event(trace.KRetry, ip.k.Now(), ip.inflight.ID.String(), ip.appID, int(ip.gid), int64(rec.sends))
			ip.at = relVerdict
			return ip.reportFailure(d)
		}
	case relVerdict:
		switch {
		case ip.health == balancer.Dead:
			rec.failing, rec.budget, rec.attempt, rec.lastErr = true, ip.fab.PoolSize(), 0, cuda.ErrBackendLost
			ip.failover()
		case !retryable(ip.inflight.ID) || rec.sends > maxRetries:
			ip.finish(nil, cuda.ErrBackendLost)
		default:
			ip.at = relSend
			d.Sleep(rec.backoff)
			rec.backoff = min(2*rec.backoff, backoffCap)
			return false
		}
	case rpFailed:
		rec.attempt++
		ip.failover()
	}
	return true
}

// await takes the reply to the call numbered seq, waiting at most the call
// timeout: the reply with its error, an error for a stream that cannot carry
// it, neither once the timeout expired, or waiting while d's step ends in the
// wait. A stale reply from a retransmitted earlier call is skipped, and the
// next waited for afresh.
func (ip *Interposer) await(d *sim.Daemon, seq uint64) (r *rpcproto.Reply, waiting bool, err error) {
	for {
		msg, ok, expired := ip.ep.TakeTimeout(d, ip.rec.cfg.CallTimeout)
		if !ok {
			return nil, !expired, nil
		}
		r, isReply := msg.(*rpcproto.Reply)
		switch {
		case !isReply:
			return nil, false, fmt.Errorf("interpose: unexpected message %T", msg)
		case r.Seq == seq:
			return r, false, r.AsError()
		case r.Seq > seq:
			return nil, false, fmt.Errorf("interpose: reply %d overtook call %d", r.Seq, seq)
		}
	}
}

// reportFailure posts a failure report against the bound GPU and ends d's step
// waiting for the verdict, which lands in ip.health.
func (ip *Interposer) reportFailure(d *sim.Daemon) bool {
	ip.fab.ReportFailure(ip.gid, &ip.health, ip.latch())
	d.Wait(ip.sel)
	return false
}

// failover makes the next attempt to move off the dead binding: it releases
// the binding and selects a survivor (the DST row of the dead device is
// already non-Healthy, so the policy skips it), or, once every device has
// been tried, fails the call in flight with the last attempt's error.
func (ip *Interposer) failover() {
	rec := &ip.rec
	if rec.attempt == rec.budget {
		rec.failing = false
		ip.finish(nil, rec.lastErr)
		return
	}
	ip.fab.ReportFeedback(ip.gid, ip.kind, nil)
	ip.at = selOut
}

// rebind connects to the replacement and starts its replay: the registration
// handshake, then the application's surviving state — streams, allocations
// and events, each in ascending virtual-id order — whose replies remap the
// virtual-id tables to the replacement's handles. Device-resident data is not
// re-staged: the simulator carries no payloads, and a real implementation
// would restore it from host-side shadow copies at this point.
func (ip *Interposer) rebind() {
	rec := &ip.rec
	ip.connect()
	rec.replay = append(rec.replay[:0], replayCall{id: cuda.CallSetDevice})
	for _, vid := range sortedKeys(rec.streams) {
		rec.replay = append(rec.replay, replayCall{cuda.CallStreamCreate, int64(vid)})
	}
	ptrs := make([]int64, 0, len(rec.ptrs))
	for vid := range rec.ptrs {
		ptrs = append(ptrs, vid)
	}
	slices.Sort(ptrs)
	for _, vid := range ptrs {
		rec.replay = append(rec.replay, replayCall{cuda.CallMalloc, vid})
	}
	for _, vid := range sortedKeys(rec.events) {
		rec.replay = append(rec.replay, replayCall{cuda.CallEventCreate, int64(vid)})
	}
	ip.replayNext()
}

// replayNext sends the next replay call, never retried: a failure moves the
// failover on to the next candidate.
func (ip *Interposer) replayNext() {
	rec := &ip.rec
	next := rec.replay[0]
	rec.wire = ip.newCall(next.id)
	switch next.id {
	case cuda.CallSetDevice:
		rec.wire.Dev, rec.wire.KernelName = int32(ip.gid), ip.kind
	case cuda.CallMalloc:
		rec.wire.Bytes = rec.ptrs[next.vid].size
	}
	ip.at = txPaying
}

// replayed takes the outcome of the replay call in flight — its reply r, an
// error, or neither on a timeout — and sends the next call, or after the last
// ends the failover, and the call in flight goes on; on a failure it reports
// the replacement and ends d's step waiting for the verdict.
func (ip *Interposer) replayed(d *sim.Daemon, r *rpcproto.Reply, err error) bool {
	rec := &ip.rec
	if r == nil && err == nil {
		err = cuda.ErrBackendLost
	}
	if err != nil {
		rec.lastErr = err
		ip.at = rpFailed
		return ip.reportFailure(d)
	}
	done := rec.replay[0]
	rec.replay = rec.replay[1:]
	switch done.id {
	case cuda.CallSetDevice:
		rec.regReply = r
	case cuda.CallStreamCreate:
		rec.streams[int32(done.vid)] = r.Stream
	case cuda.CallMalloc:
		m := rec.ptrs[done.vid]
		m.bid, m.dev = r.PtrID, r.PtrDev
	default:
		rec.events[int32(done.vid)] = r.Event
	}
	if len(rec.replay) > 0 {
		ip.replayNext()
		return true
	}
	rec.failing = false
	rec.failovers++
	rec.disrupted = false
	ip.tr.Event(trace.KFailover, ip.k.Now(), ip.kind, ip.appID, int(ip.gid), int64(rec.attempt+1))
	ip.tr.SetGID(ip.reqSpan, int(ip.gid))
	if ip.inflight.ID == cuda.CallSetDevice {
		// The call in flight was the registration itself; the replay's
		// registration performed it.
		ip.finish(rec.regReply, nil)
		return true
	}
	// Re-issue on the replacement backend under a fresh sequence number
	// (the new session has its own reply stream).
	ip.seq++
	ip.inflight.Seq = ip.seq
	rec.sends, rec.backoff = 0, backoffBase
	ip.at = relSend
	return true
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
