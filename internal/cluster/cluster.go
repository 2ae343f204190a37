// Package cluster is the third scheduling level: a global scheduler that
// places tenant streams onto M supernodes, where each supernode is one
// complete core run (a Strings deployment with its own Affinity Mapper,
// backends and device schedulers).
//
// The design follows Arktos's shared-state optimistic global scheduler: the
// placement engine works from a periodically refreshed snapshot of every
// supernode's capacity ledger, commits placements optimistically against
// the authoritative ledger, detects conflicts (the snapshot was stale and
// the capacity is gone) and retries deterministically, parking tenants in a
// bounded FIFO admission queue when the fleet is full and rejecting them
// when the queue overflows.
//
// Placement is one-way: it consumes the open-arrival population's declared
// lifetimes and slot demands, never the simulated runs' outcomes. That
// boundary is what makes the tier trivially deterministic — the placement
// log is a pure function of (seed, spec, policy), and the M supernode runs
// it emits are the already-proven deterministic core runs, composable under
// any worker or shard count (DESIGN.md §16).
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Placement policies.
const (
	// PolicyLeastLoaded places each tenant on the supernode with the most
	// free slots (ties to the lowest index).
	PolicyLeastLoaded = "least-loaded"
	// PolicyFrag places each tenant on the supernode whose fragmentation
	// score (balancer.FragScore over a synthetic cluster-scope DST row)
	// increases the least — the cluster-scope analogue of the Frag slice
	// policy from PR 8.
	PolicyFrag = "frag"
)

// Policies lists the placement policies in display order.
func Policies() []string { return []string{PolicyLeastLoaded, PolicyFrag} }

// Supernode describes one supernode: the node/GPU fleet of a core run. Its
// admission capacity, the slots the global scheduler may promise away, is
// DefaultSlotsPerDevice per device.
type Supernode struct {
	// Nodes is the supernode's fleet, exactly as core.Config.Nodes.
	Nodes []core.NodeConfig
}

// DefaultSlotsPerDevice is the admission slots carried by each device.
// Slots are the cluster tier's capacity currency — an admission-control
// budget (tenants the supernode will serve concurrently), deliberately
// coarser than the per-device DST the supernode's own mapper runs.
const DefaultSlotsPerDevice = 4

// devices counts the supernode's devices.
func (s Supernode) devices() int {
	n := 0
	for _, nc := range s.Nodes {
		n += len(nc.Devices)
	}
	return n
}

// Capacity returns the supernode's total admission slots.
func (s Supernode) Capacity() int {
	return s.devices() * DefaultSlotsPerDevice
}

// Config describes a full cluster-tier run.
type Config struct {
	// Seed drives everything: the open-arrival population, the placement
	// engine and (folded per supernode) the M core runs.
	Seed int64

	// Supernodes is the fleet the global scheduler places onto.
	Supernodes []Supernode

	// Policy names the placement policy (PolicyLeastLoaded, PolicyFrag).
	Policy string

	// Arrivals generates the tenant population (births, lifetimes,
	// per-tenant request streams). See workload.OpenArrivalSpec.
	Arrivals workload.OpenArrivalSpec

	// SnapshotEvery is the number of placement commits between snapshot
	// refreshes — the staleness knob of the shared-state design. 1 keeps
	// the snapshot always fresh (no conflicts possible); larger values
	// model schedulers racing over stale state. Default 8.
	SnapshotEvery int

	// ParkCapacity bounds the admission park queue; a tenant arriving to
	// a full fleet with a full queue is rejected. Default 64.
	ParkCapacity int

	// Workers sets the parallelism of the supernode runs (parallel.Map
	// semantics: 0 = GOMAXPROCS, results bit-identical at any value).
	Workers int

	// Traced installs a trace recorder on every supernode run; the
	// Result then carries each supernode's canonical JSONL export.
	Traced bool
}

// withDefaults fills the zero knobs.
func (c Config) withDefaults() Config {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 8
	}
	if c.ParkCapacity <= 0 {
		c.ParkCapacity = 64
	}
	if c.Policy == "" {
		c.Policy = PolicyLeastLoaded
	}
	return c
}

// Validate rejects configurations the engine cannot serve.
func (c Config) Validate() error {
	c = c.withDefaults()
	if len(c.Supernodes) == 0 {
		return fmt.Errorf("cluster: no supernodes")
	}
	for i, sn := range c.Supernodes {
		if sn.Capacity() <= 0 {
			return fmt.Errorf("cluster: supernode %d has no capacity (no devices?)", i)
		}
	}
	switch c.Policy {
	case PolicyLeastLoaded, PolicyFrag:
	default:
		return fmt.Errorf("cluster: unknown policy %q (valid: %v)", c.Policy, Policies())
	}
	if err := c.Arrivals.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}
