package interpose

import (
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// stage is where the call in flight goes next. Each stage makes at most one
// wait, so a daemon's step ends in it.
type stage uint8

const (
	idle      stage = iota // no call in flight
	selecting              // binding: pay the selection's marshalling cost
	selOut                 // wait out the link to the mapper
	selPost                // post the selection, wait for the verdict
	selBack                // wait out the link back
	binding                // connect and register, or, failing over, replay
	marshal                // ready the frame that goes out, pay the marshalling cost
	paying                 // pay the frame's transfer
	posting                // post it
	replying               // wait for its reply, at most the call timeout

	// Recovery (recovery.go).
	relVerdict // the call timed out: act on the failure report's verdict
	rpFailed   // a replay failed: its failure report is in, try another device
)

// Issue implements cuda.Stepper: the call is marshalled here, and Await
// drives it. The first call binds the application to the GPU the balancer
// picks, whatever the call is; a SetDevice once bound is ignored, since the
// balancer owns placement for the application's lifetime, and every call
// after ThreadExit fails at once.
func (ip *Interposer) Issue(op *cuda.Op) {
	ip.op, ip.ret, ip.err = op, cuda.Ret{}, nil
	switch {
	case op.ID == cuda.CallDeviceCount: // applications see the whole gPool
		ip.ret.Count = ip.fab.PoolSize()
	case ip.exited:
		ip.err = cuda.ErrThreadExited
	case !ip.bound:
		ip.at = selecting
	case op.ID != cuda.CallSetDevice:
		ip.start(ip.marshal(op))
	}
}

// start makes c the call in flight.
func (ip *Interposer) start(c *rpcproto.Call, blocking bool) {
	ip.inflight, ip.blocking, ip.at = c, blocking || !ip.async, marshal
	c.NonBlocking = !ip.blocking
	ip.rec.sends, ip.rec.backoff = 0, backoffBase
	ip.span = 0
	if ip.tr.Enabled() {
		ip.span = ip.beginCall(c)
	}
}

// Await implements cuda.Stepper.
func (ip *Interposer) Await(d *sim.Daemon) bool {
	for {
		switch ip.at {
		case idle:
			return true
		case selecting:
			ip.at = selOut
			d.Sleep(MarshalOverhead)
			return false
		case selOut:
			ip.at = selPost
			if !ip.rec.failing {
				ip.span = ip.beginSelect()
			}
			if hop := ip.fab.SelectHop(); hop > 0 {
				d.Sleep(hop)
				return false
			}
		case selPost:
			ip.at = selBack
			d.Wait(ip.postSelect())
			return false
		case selBack:
			ip.at = binding
			if hop := ip.fab.SelectHop(); hop > 0 {
				d.Sleep(hop)
				return false
			}
		case binding:
			if ip.rec.failing {
				ip.rebind()
				break
			}
			ip.start(ip.bind(ip.span), true)
		case marshal:
			ip.send()
			d.Sleep(MarshalOverhead)
			return false
		case paying:
			ip.at = posting
			if cost := ip.ep.Cost(ip.out, ip.out.PayloadBytes()); cost > 0 {
				d.Sleep(cost)
				return false
			}
		case posting:
			ip.ep.Post(ip.out)
			ip.at = replying
			if !ip.rec.failing { // a replay call is not the call in flight
				ip.rec.sends++
				if !ip.blocking {
					ip.finish(nil, nil)
				}
			}
		case replying:
			r, waiting, err := ip.await(d)
			switch {
			case waiting:
				return false
			case ip.rec.failing:
				if !ip.replayed(d, r, err) {
					return false
				}
			case r == nil && err == nil:
				return ip.timedOut(d)
			default:
				if r != nil && ip.rec.disrupted {
					ip.rec.disrupted = false
					ip.fab.ReportRecovered(ip.gid)
				}
				ip.finish(r, err)
			}
		default:
			if !ip.recover(d) {
				return false
			}
		}
	}
}

// finish ends the call in flight with its reply r, nil for a non-blocking
// call, and its error. The registration of a binding that a call other than
// SetDevice made goes on to that call.
func (ip *Interposer) finish(r *rpcproto.Reply, err error) {
	ip.tr.End(ip.span, ip.k.Now())
	c, op := ip.inflight, ip.op
	ip.at, ip.inflight, ip.err = idle, nil, err
	if c.ID == cuda.CallSetDevice && op.ID != cuda.CallSetDevice {
		if err == nil {
			ip.start(ip.marshal(op))
		}
		return
	}
	switch op.ID {
	case cuda.CallMalloc:
		if err == nil {
			ip.ret.Ptr = ip.internPtr(r)
		}
	case cuda.CallFree: // the virtual-id tables are nil unless recovery is armed
		if err == nil { // a non-blocking send reports no error: the call went out
			delete(ip.rec.ptrs, op.Ptr.ID)
		}
	case cuda.CallStreamCreate:
		if err == nil {
			ip.ret.Stream = ip.internStream(r.Stream)
		}
	case cuda.CallStreamDestroy:
		delete(ip.rec.streams, int32(op.Stream))
	case cuda.CallEventCreate:
		if err == nil {
			ip.ret.Event = ip.internEvent(r.Event)
		}
	case cuda.CallEventElapsed:
		if err == nil {
			ip.ret.Elapsed = sim.Time(r.Elapsed)
		}
	case cuda.CallEventDestroy:
		delete(ip.rec.events, int32(op.Event))
	case cuda.CallThreadExit:
		ip.exit(r)
	}
}

// Result implements cuda.Stepper.
func (ip *Interposer) Result() (cuda.Ret, error) { return ip.ret, ip.err }

var _ cuda.Stepper = (*Interposer)(nil)
