package core

import (
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
)

// appIDStride spaces the per-environment application-ID ranges so IDs stay
// globally unique without cross-kernel coordination: environment i hands out
// i*appIDStride+1, i*appIDStride+2, ...
const appIDStride = 1 << 32

// shardEnv is one kernel's slice of the cluster: the kernel with the free
// lists of what runs on it (a slab, lent by Config.Arena for the first
// kernel), its coordinator handle, the recorder, result sink, and the
// app-ID/tenant bookkeeping of the streams arriving at its nodes.
type shardEnv struct {
	*slab // own, or the arena's
	own   slab
	c     *Cluster
	idx   int
	sh    *shard.Shard
	rec   *trace.Recorder

	results *RunResult
	appSeq  int
	apps    []appTenant // in launch order, which is app-id order
}

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

// buildEnvs lays out the node→kernel partition: one kernel per node when
// sharding is requested and the topology allows it, one kernel for every
// node otherwise — in both cases under one coordinator whose lookahead is
// the remote-link latency. Everything downstream reads the partition as
// data (c.nodes[n].e, c.devEnv[gid]); nothing asks which layout it is.
func (c *Cluster) buildEnvs() {
	cfg := c.cfg
	kernels := []*sim.Kernel{c.K}
	if cfg.Shards >= 1 && shardEligible(cfg) {
		for n := 1; n < len(cfg.Nodes); n++ {
			// The kernel RNG is unused by the model (streams carry their
			// own seeded sources), so all kernels may share the seed.
			kernels = append(kernels, sim.NewKernel(cfg.Seed))
		}
	}
	c.coord = shard.NewCoordinator(kernels, cfg.RemoteLink.Latency, 0)
	for i, k := range kernels {
		rec := cfg.Recorder
		if i > 0 && rec.Enabled() {
			rec = trace.New()
		}
		e := &shardEnv{c: c, idx: i, sh: c.coord.Shard(i), rec: rec, results: newRunResult()}
		e.slab = &e.own
		if i == 0 && c.lent != nil {
			e.slab = c.lent
		}
		e.k = k
		c.envs = append(c.envs, e)
	}
	for n := range cfg.Nodes {
		// Nodes are dealt round-robin onto the kernels: all onto the one
		// kernel, or node n onto kernel n.
		c.nodes = append(c.nodes, &nodeFabric{c: c, node: n, e: c.envs[n%len(c.envs)]})
	}
}

// Sharded reports whether the cluster runs one kernel per node (a
// Shards >= 1 request may still collapse to one kernel; see Config.Shards).
func (c *Cluster) Sharded() bool { return len(c.envs) > 1 }

// ShardStats returns the coordinator's window-protocol counters (zero when
// not sharded: one kernel runs no windows).
func (c *Cluster) ShardStats() shard.Stats {
	if !c.Sharded() {
		return shard.Stats{}
	}
	return c.coord.Stats()
}

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

// Close closes every kernel — the processes the run left parked are unwound
// and no goroutine remains — and ends the cluster: devices and results stay
// readable, it cannot run again. A kernel lent by Config.Arena goes back to
// the arena, reset, with the sessions and frontends the run left live, and
// belongs to the arena's next cluster from then on. Safe to call more than
// once.
func (c *Cluster) Close() {
	for i, e := range c.envs {
		if i > 0 || c.cfg.Arena == nil {
			e.k.Close()
		}
	}
	if c.lent != nil {
		c.cfg.Arena.put(c.lent)
		c.lent = nil
	}
}

// nextAppID allocates the next application ID from the environment's range.
func (e *shardEnv) nextAppID() int {
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
