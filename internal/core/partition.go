package core

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
)

// appIDStride spaces the per-environment application-ID ranges so IDs stay
// globally unique without cross-kernel coordination: environment i hands out
// i*appIDStride+1, i*appIDStride+2, ...
const appIDStride = 1 << 32

// appTenant is one launched application and its tenant.
type appTenant struct {
	id     int
	tenant int64
}

// shardEligible reports whether the per-node shard partition can express
// cfg's topology. A single node has nothing to partition; a zero remote
// latency admits no conservative lookahead; fault plans and partitionable
// (MIG) fleets mutate cross-node structure — dead devices leave the shared
// gPool, slices are carved on whatever node has room — from the mapper's
// shard, which the per-node ownership model cannot represent.
func shardEligible(cfg Config) bool {
	if len(cfg.Nodes) < 2 {
		return false
	}
	if cfg.RemoteLink.Latency < 1 {
		return false
	}
	if len(cfg.Faults.Faults) > 0 {
		return false
	}
	for _, n := range cfg.Nodes {
		for _, spec := range n.Devices {
			if spec.Partitionable() {
				return false
			}
		}
	}
	return true
}

// buildEnvs lays out the node→kernel partition, a slab per kernel: one kernel
// per node when sharding is requested and the topology allows it, one for
// every node otherwise. The first slab brings the tables, and one kernel its
// coordinator (lookahead 0, counters zero); several kernels run under one
// whose lookahead is the remote-link latency. Everything downstream reads the
// partition as data (c.nodes[n].e, c.devEnv[gid]), not which layout it is.
func (c *Cluster) buildEnvs() {
	cfg, a := c.cfg, c.arena
	n := 1
	if cfg.Shards >= 1 && shardEligible(cfg) {
		n = len(cfg.Nodes)
	}
	first := a.get()
	c.tables = first.tables.reuse()
	c.envs = append(c.envs, first)
	for len(c.envs) < n {
		c.envs = append(c.envs, a.get())
	}
	c.K, c.coord = first.k, first.coord
	if n > 1 {
		kernels := make([]*sim.Kernel, n)
		for i, e := range c.envs {
			kernels[i] = e.k
		}
		c.coord = shard.NewCoordinator(kernels, cfg.RemoteLink.Latency, 0)
	}
	for i, e := range c.envs {
		// The kernel RNG is unused by the model (streams carry their own
		// seeded sources), so all kernels may share the seed.
		e.k.Reset(cfg.Seed)
		rec := cfg.Recorder
		if i > 0 && rec.Enabled() {
			rec = trace.New()
		}
		e.c, e.idx, e.sh, e.rec = c, i, c.coord.Shard(i), rec
		e.results, e.appSeq, e.apps = newRunResult(), 0, e.apps[:0]
	}
	for n := range cfg.Nodes {
		// Nodes are dealt round-robin onto the kernels: all onto the one
		// kernel, or node n onto kernel n.
		c.nodes = append(c.nodes, nodeFabric{c: c, node: n, e: c.envs[n%len(c.envs)]})
	}
}

// Sharded reports whether the cluster runs one kernel per node (a
// Shards >= 1 request may still collapse to one kernel; see Config.Shards).
func (c *Cluster) Sharded() bool { return len(c.envs) > 1 }

// ShardStats returns the coordinator's window-protocol counters (zero when
// not sharded: one kernel runs no windows).
func (c *Cluster) ShardStats() shard.Stats { return c.coord.Stats() }

// Dispatched returns the total activations dispatched across every kernel.
func (c *Cluster) Dispatched() (n uint64) {
	for _, e := range c.envs {
		n += e.k.Dispatched()
	}
	return n
}

// Resumes returns how many of them cost a coroutine switch in and one out.
func (c *Cluster) Resumes() (n uint64) {
	for _, e := range c.envs {
		n += e.k.Resumes()
	}
	return n
}

// FastForwards sums the fast-forward counters across every kernel.
func (c *Cluster) FastForwards() (jumps uint64, skipped sim.Time) {
	for _, e := range c.envs {
		j, s := e.k.FastForwards()
		jumps += j
		skipped += s
	}
	return jumps, skipped
}

// Recorders returns every environment's recorder in kernel order (a single
// element when not sharded; empty when tracing is disabled). Concatenating
// their JSONL output in this order is the run's canonical trace.
func (c *Cluster) Recorders() []*trace.Recorder {
	var recs []*trace.Recorder
	for _, e := range c.envs {
		if e.rec.Enabled() {
			recs = append(recs, e.rec)
		}
	}
	return recs
}

// Close ends the cluster. Every device, device scheduler and packer goes to
// the slab of the kernel it ran on, the mapper and tables stay with the first
// kernel's, and every slab goes back to the arena, its kernel reset: the
// processes the run left parked are unwound and no goroutine remains. After
// Close, Devices, Mapper, Sharded and Recorders read empty and the result is
// the caller's alone. Safe to call more than once.
func (c *Cluster) Close() {
	envs := c.envs
	if len(envs) == 0 {
		return
	}
	// Last to first, for the next cluster to take them in GID order.
	for gid, d := range slices.Backward(c.devices) {
		c.devEnv[gid].devices = append(c.devEnv[gid].devices, d) // bounded by the kernel's largest share of a fleet
	}
	for gid, s := range slices.Backward(c.scheds) {
		c.devEnv[gid].scheds = append(c.devEnv[gid].scheds, s)
	}
	for gid, p := range slices.Backward(c.packers) {
		c.devEnv[gid].packers = append(c.devEnv[gid].packers, p)
	}
	c.mapper = nil
	envs[0].tables, c.tables = c.tables, tables{} // so that stale reads fail loudly
	for _, e := range slices.Backward(envs) {
		c.arena.put(e)
	}
}

// nextAppID allocates the next application ID from the environment's range.
func (e *slab) nextAppID() int {
	e.appSeq++
	return e.idx*appIDStride + e.appSeq
}

// result returns the cluster result: the sink of the mapper's environment,
// which slice placement writes directly and into which collect folds the
// other environments.
func (c *Cluster) result() *RunResult { return c.envs[0].results }

// collect folds what the other environments recorded since the last
// collection into the cluster result, in kernel order, and stamps the end
// time (the latest kernel clock). Their sinks restart empty, so totals over
// several runs of one cluster do not depend on the partition.
func (c *Cluster) collect() *RunResult {
	r := c.result()
	r.EndTime = c.K.Now()
	for _, e := range c.envs[1:] {
		r.Merge(e.results)
		e.results = newRunResult()
		if t := e.k.Now(); t > r.EndTime {
			r.EndTime = t
		}
	}
	c.closeStranded(r.EndTime)
	return r
}
