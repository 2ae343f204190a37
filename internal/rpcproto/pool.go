package rpcproto

// Pool recycles Call and Reply frames among the connections that run on one
// simulation kernel. The simulated RPC path uses one Call and one Reply per
// intercepted CUDA call; on a million-request run those frames dominate the
// allocation profile, so the frontend and backend return consumed frames
// here instead of dropping them for the GC.
//
// A pool belongs to a kernel, not to a connection: a simulation is one
// goroutine, so every endpoint on a kernel shares the free lists without
// locking, and a frame that crosses kernels inside a message is freed into
// the pool of whichever kernel frees it.
//
// Ownership discipline (enforced by the callers, not the pool):
//
//   - blocking calls: the frontend owns both frames and frees them once the
//     reply has been fully consumed (in practice: when it issues the next
//     call on the same connection);
//   - non-blocking calls: the frontend forgets the frame at issue, so the
//     backend frees the call — and the suppressed reply — at the end of the
//     serve iteration;
//   - a connection under recovery hands out no pool (Endpoint.RetainFrames):
//     retransmission keeps frames alive past any single round trip;
//   - a run cut off at a horizon: each side frees what it holds in hand — the
//     frontend its last round trip and a call not yet posted, the backend the
//     call it serves and a reply not yet posted — ConnPool.Reclaim what waits
//     in an inbox, and a frame on the wire is dropped.
//
// The zero Pool is valid. A nil *Pool is the valid disabled pool: Get
// allocates fresh frames and Free drops them, so callers need not guard.
type Pool struct {
	calls   []*Call
	replies []*Reply
}

// poolCap bounds the free frames of each kind a pool keeps. Between kernels
// frames flow one way (replies toward frontends, non-blocking calls toward
// backends), so a kernel hosting more of one would hoard what its peers
// allocate; capped, a one-way topology degrades to allocate-and-drop. On the
// repo benchmark one kernel peaks at 159 calls and 42 replies (policy_grid),
// while fleet_sharded uncapped drifts past 1 758 and 505: 256 covers the
// first and stops the second at 55 KB a kernel for 0.05 allocations a request.
const poolCap = 256

// GetCall returns a zeroed Call frame.
func (p *Pool) GetCall() *Call {
	if p == nil {
		return &Call{}
	}
	if n := len(p.calls); n > 0 {
		c := p.calls[n-1]
		p.calls[n-1] = nil
		p.calls = p.calls[:n-1]
		return c
	}
	return &Call{}
}

// FreeCall returns a fully consumed Call frame to the pool. The frame is
// zeroed here so a pooled frame is indistinguishable from a fresh one.
func (p *Pool) FreeCall(c *Call) {
	if p == nil || c == nil || len(p.calls) >= poolCap {
		return
	}
	*c = Call{}
	p.calls = append(p.calls, c)
}

// GetReply returns a zeroed Reply frame.
func (p *Pool) GetReply() *Reply {
	if p == nil {
		return &Reply{}
	}
	if n := len(p.replies); n > 0 {
		r := p.replies[n-1]
		p.replies[n-1] = nil
		p.replies = p.replies[:n-1]
		return r
	}
	return &Reply{}
}

// FreeReply returns a fully consumed Reply frame to the pool.
func (p *Pool) FreeReply(r *Reply) {
	if p == nil || r == nil || len(p.replies) >= poolCap {
		return
	}
	*r = Reply{}
	p.replies = append(p.replies, r)
}
