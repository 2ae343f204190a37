package interpose

import (
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// stage is where the call in flight of a thread a daemon runs goes next: the
// waits a process makes inside SetDevice and send, one stage each.
type stage uint8

const (
	idle      stage = iota // no call in flight
	selecting              // SetDevice: pay the marshalling cost
	selOut                 // wait out the link to the mapper
	selPost                // post the selection, wait for the verdict
	selBack                // wait out the link back
	binding                // connect and register
	marshal                // pay the call's marshalling cost
	paying                 // pay its transfer
	posting                // post it
	replying               // wait for its reply
)

// Issue implements cuda.Stepper for an interposer Init made: the call is
// marshalled here, and Await drives it. Only SetDevice binds the thread, so
// any other call comes after SetDevice succeeded and before ThreadExit.
func (ip *Interposer) Issue(op *cuda.Op) {
	ip.op, ip.ptr, ip.err = op.ID, cuda.Ptr{}, nil
	if op.ID == cuda.CallSetDevice {
		switch {
		case ip.exited:
			ip.err = cuda.ErrThreadExited
		case !ip.bound:
			ip.at = selecting
		}
		return
	}
	ip.start(ip.marshal(op))
}

// start makes c the call in flight, as send does.
func (ip *Interposer) start(c *rpcproto.Call, blocking bool) {
	ip.inflight, ip.blocking, ip.at = c, blocking || !ip.async, marshal
	c.NonBlocking = !ip.blocking
	ip.span = 0
	if ip.tr.Enabled() {
		ip.span = ip.beginCall(c)
	}
}

// Await implements cuda.Stepper: each stage makes at most one of the waits
// SetDevice and send make on a process.
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
			ip.span, ip.at = ip.beginSelect(), selPost
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
			ip.start(ip.bind(ip.span), true)
		case marshal:
			ip.at = paying
			d.Sleep(MarshalOverhead)
			return false
		case paying:
			ip.at = posting
			if cost := ip.ep.Cost(ip.inflight, ip.inflight.PayloadBytes()); cost > 0 {
				d.Sleep(cost)
				return false
			}
		case posting:
			ip.ep.Post(ip.inflight)
			if !ip.blocking {
				ip.finish(nil, nil)
				break
			}
			ip.at = replying
		case replying:
			msg, ok := ip.ep.Take(d)
			if !ok {
				return false
			}
			ip.finish(ip.received(ip.inflight, msg))
		}
	}
}

// finish ends the call in flight with its reply r, nil for a non-blocking
// call, as the process's call method does after send.
func (ip *Interposer) finish(r *rpcproto.Reply, err error) {
	ip.tr.End(ip.span, ip.k.Now())
	ip.at, ip.inflight, ip.err = idle, nil, err
	switch ip.op {
	case cuda.CallMalloc:
		if err == nil {
			ip.ptr = ip.internPtr(r)
		}
	case cuda.CallThreadExit:
		ip.exit(r)
	}
}

// Result implements cuda.Stepper.
func (ip *Interposer) Result() (cuda.Ptr, error) { return ip.ptr, ip.err }

var _ cuda.Stepper = (*Interposer)(nil)
