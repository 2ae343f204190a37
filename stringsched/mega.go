package stringsched

import "fmt"

// MegaResult summarizes one mega macro-run: a single long stream of
// light-profile requests pushed through a two-GPU Strings node. It exists to
// answer the scaling question the figure experiments cannot — does the kernel
// hold its per-event cost at millions of requests — and to expose the
// fast-forward counters that only matter at this scale.
type MegaResult struct {
	Requests int // requests submitted
	Finished int // requests that completed
	Events   uint64
	Resumes  uint64 // events that cost a coroutine switch in and one back out
	EndTime  Time   // virtual time at which the last event completed

	// Fast-forward instrumentation: how often the kernel's clock jumped
	// over a quiescent stretch longer than the horizon, and how much
	// virtual time those jumps covered in total. The mega stream's
	// inter-arrival gaps dwarf its service times, so most of the virtual
	// timeline is skipped; FFSkipped/EndTime is the skip ratio.
	FFJumps   uint64
	FFSkipped Time
}

// RunMega drives the mega macro-scenario: requests Gaussian-elimination
// requests (the lightest Table I profile) arriving as one Poisson stream at a
// two-GPU Strings node under GMin balancing. Identical seeds give
// bit-identical results. The smoke tests run it scaled down to guard the
// dead-stream-scan fix (per-request cost flat in run length); the repo
// benchmark's node_mega workload times the same configuration.
func RunMega(seed int64, requests int) (MegaResult, error) {
	c, err := NewCluster(Config{
		Seed: seed,
		Nodes: []NodeConfig{{Devices: []DeviceSpec{
			Quadro2000, TeslaC2050,
		}}},
		Mode:    ModeStrings,
		Balance: "GMin",
	})
	if err != nil {
		return MegaResult{}, err
	}
	defer c.Close()
	r, err := c.Run([]StreamSpec{{
		Kind: Gaussian, Count: requests, LambdaFactor: 1.5,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil {
		return MegaResult{}, err
	}
	if len(r.Errors) > 0 {
		return MegaResult{}, fmt.Errorf("mega run errors: %v", r.Errors)
	}
	return megaResult(c, r, requests), nil
}

// megaResult reads a finished mega run's counters, summed over the
// cluster's kernels.
func megaResult(c *Cluster, r *RunResult, requests int) MegaResult {
	jumps, skipped := c.FastForwards()
	return MegaResult{
		Requests:  requests,
		Finished:  r.Finished,
		Events:    c.Dispatched(),
		Resumes:   c.Resumes(),
		EndTime:   r.EndTime,
		FFJumps:   jumps,
		FFSkipped: skipped,
	}
}

// SkipRatio is the fraction of the virtual timeline the kernel fast-forwarded
// over instead of stepping through.
func (m MegaResult) SkipRatio() float64 {
	if m.EndTime <= 0 {
		return 0
	}
	return float64(m.FFSkipped) / float64(m.EndTime)
}

// megaShardNodes is the sharded mega fleet: four identical two-GPU nodes, one
// shard kernel each.
const megaShardNodes = 4

// RunMegaSharded drives the sharded mega macro-scenario: the same
// light-profile Gaussian traffic as RunMega, split across a four-node fleet
// (one Poisson stream per node, one tenant per node) so the cluster
// partitions into four shard kernels under the conservative window protocol.
// shards is Config.Shards and must be >= 1 — at 0 the same model runs on one
// kernel and there is nothing to measure; every value >= 1 is the same run.
// FFJumps and FFSkipped sum over all four shard kernels (each skips its own quiescent
// stretches of the shared timeline), so SkipRatio can exceed 1 here.
func RunMegaSharded(seed int64, requests, shards int) (MegaResult, ShardStats, error) {
	nodes := make([]NodeConfig, megaShardNodes)
	for i := range nodes {
		nodes[i] = NodeConfig{Devices: []DeviceSpec{Quadro2000, TeslaC2050}}
	}
	c, err := NewCluster(Config{
		Seed:    seed,
		Nodes:   nodes,
		Mode:    ModeStrings,
		Balance: "GMin",
		Shards:  shards,
	})
	if err != nil {
		return MegaResult{}, ShardStats{}, err
	}
	defer c.Close()
	if !c.Sharded() {
		return MegaResult{}, ShardStats{}, fmt.Errorf("mega sharded: fleet did not shard (shards=%d)", shards)
	}
	streams := make([]StreamSpec, megaShardNodes)
	per := requests / megaShardNodes
	for i := range streams {
		n := per
		if i == 0 {
			n += requests % megaShardNodes
		}
		streams[i] = StreamSpec{
			Kind: Gaussian, Count: n, LambdaFactor: 1.5,
			Node: i, Tenant: int64(i + 1), Weight: 1,
		}
	}
	r, err := c.Run(streams)
	if err != nil {
		return MegaResult{}, ShardStats{}, err
	}
	if len(r.Errors) > 0 {
		return MegaResult{}, ShardStats{}, fmt.Errorf("mega sharded run errors: %v", r.Errors)
	}
	return megaResult(c, r, requests), c.ShardStats(), nil
}
