package core

import (
	"repro/internal/balancer"
	"repro/internal/interpose"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// mapperNode is the node hosting the GPU Affinity Mapper service.
const mapperNode = 0

// nodeFabric is the interpose.Fabric handed to every application arriving
// at one node, and that node's entry in the node→kernel partition. Control
// messages between the node and the mapper ride the same remoting fabric as
// every other call: the mapper's own node reports to it instantly (a
// selection pays the local link each way), every other node pays
// RemoteLink.Latency each way for selections, feedback/release, failure and
// recovery reports — whether or not the two nodes share a kernel.
type nodeFabric struct {
	c    *Cluster
	node int
	e    *slab // the kernel the node's devices, streams and frontends live on
}

// Fabric returns the interpose.Fabric of the applications arriving at node.
func (c *Cluster) Fabric(node int) interpose.Fabric { return &c.nodes[node] }

// toMapper relays a control message from the node to the mapper service in
// a pooled copy, stamped with its arrival instant: at once from the mapper's
// own node, RemoteLink.Latency later from any other — a kernel timer when the
// two nodes share a kernel, a mailbox message when they do not. The copy
// comes from the pool the mapper returns them to: the whole composition runs
// on one goroutine, so one pool serves every kernel.
func (f *nodeFabric) toMapper(msg mapperMsg) {
	c := f.c
	m := take(&c.mapFree)
	*m = msg
	m.node = f.node
	if f.node == mapperNode {
		m.at = c.K.Now()
		c.mapQ.Put(m)
		return
	}
	lat := c.cfg.RemoteLink.Latency
	m.at = f.e.k.Now() + lat
	f.e.sh.SendPut(c.nodes[mapperNode].e.idx, lat, &c.mapQ, m)
}

// reply calls a mapper verdict's completion on the requester's node.
func (c *Cluster) reply(m mapperMsg) {
	if m.node == mapperNode {
		m.done()
		return
	}
	c.nodes[mapperNode].e.sh.Send(c.nodes[m.node].e.idx, c.cfg.RemoteLink.Latency, m.done)
}

// SelectGPU implements interpose.Fabric. Requests from tenants with a
// slice profile are enriched with the profile's demand here, so the
// interposer stays slice-agnostic.
func (f *nodeFabric) SelectGPU(req balancer.Request, gid *balancer.GID, done func()) {
	f.toMapper(mapperMsg{req: f.c.sliceDemand(req), out: gid, done: done})
}

// SelectHop implements interpose.Fabric: on the mapper's node the requester
// itself waits out the local link, each way; elsewhere toMapper and reply
// carry the remote latency.
func (f *nodeFabric) SelectHop() sim.Time {
	if f.node == mapperNode {
		return rpcproto.SharedMemLink.Latency
	}
	return 0
}

// ConnectBackend implements interpose.Fabric. A backend on the frontend's
// kernel gets a plain conn and its accept at once. A backend on another
// kernel gets a cross-kernel conn whose two inbox queues live on their
// readers' kernels and whose deliveries ride the mailboxes; the accept is
// sent ahead on the same mailbox, so it is injected before (or at the same
// instant as, but ordered before) the handshake call.
func (f *nodeFabric) ConnectBackend(gid balancer.GID) rpcproto.Endpoint {
	c, e, oe := f.c, f.e, f.c.devEnv[gid]
	link := rpcproto.SharedMemLink
	if c.mapper.DST().Entry(gid).Node != f.node {
		link = c.cfg.RemoteLink
	}
	if oe == e {
		conn := e.conns.Get(e.k, link)
		conn.SetPools(&e.pool, &e.pool)
		c.accept(int(gid), conn)
		return conn.A()
	}
	conn := rpcproto.NewCrossConn(e.k, link,
		func(lat sim.Time, q *sim.Queue[rpcproto.Msg], m rpcproto.Msg) { e.sh.SendPut(oe.idx, lat, q, m) },
		func(lat sim.Time, q *sim.Queue[rpcproto.Msg], m rpcproto.Msg) { oe.sh.SendPut(e.idx, lat, q, m) })
	conn.SetPools(&e.pool, &oe.pool)
	e.sh.Send(oe.idx, link.Latency, func() { c.accept(int(gid), conn) })
	return conn.A()
}

// ReportFeedback implements interpose.Fabric.
func (f *nodeFabric) ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback) {
	m := mapperMsg{release: true, relGID: gid, relKind: kind}
	if fb != nil {
		m.fb, m.hasFB = *fb, true
	}
	f.toMapper(m)
}

// ReportFailure implements interpose.Fabric: it relays one failed call to
// the affinity mapper's failure detector, whose verdict calls done.
func (f *nodeFabric) ReportFailure(gid balancer.GID, h *balancer.Health, done func()) {
	f.toMapper(mapperMsg{fail: true, hGID: gid, hOut: h, done: done})
}

// ReportRecovered implements interpose.Fabric (fire and forget).
func (f *nodeFabric) ReportRecovered(gid balancer.GID) {
	f.toMapper(mapperMsg{recovered: true, hGID: gid})
}

// PoolSize implements interpose.Fabric: every DST row, retired slices
// included.
func (f *nodeFabric) PoolSize() int { return f.c.mapper.DST().Len() }
