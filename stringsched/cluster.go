package stringsched

import (
	"repro/internal/cluster"
	"repro/internal/workload"
)

// Cluster tier: the third scheduling level — a global scheduler placing
// open-arrival tenant streams onto M supernodes, each a full Strings
// deployment (see internal/cluster and DESIGN.md §16).
type (
	// ClusterConfig describes a cluster-tier run: the supernode fleet, the
	// placement policy, the open-arrival tenant population and the
	// staleness/admission knobs of the shared-state scheduler.
	ClusterConfig = cluster.Config
	// ClusterSupernode is one supernode: a core fleet plus its admission
	// slot capacity.
	ClusterSupernode = cluster.Supernode
	// ClusterResult aggregates a cluster run: the placement log, the M
	// supernode runs and the cluster-scope SLO metrics.
	ClusterResult = cluster.Result
	// ClusterPlacement records one tenant's admission.
	ClusterPlacement = cluster.Placement
	// ClusterPlacementLog is the placement engine's deterministic output.
	ClusterPlacementLog = cluster.PlacementLog
	// ClusterSupernodeResult is one supernode's share of a cluster run.
	ClusterSupernodeResult = cluster.SupernodeResult
	// OpenArrivalSpec configures the open-arrival tenant generator
	// (Poisson/diurnal/bursty birth-death processes).
	OpenArrivalSpec = workload.OpenArrivalSpec
	// TenantBirth is one generated tenant: birth instant, lifetime and
	// request-stream shape.
	TenantBirth = workload.TenantBirth
)

// Cluster placement policies.
const (
	// ClusterPolicyLeastLoaded places tenants on the supernode with the
	// most free admission slots.
	ClusterPolicyLeastLoaded = cluster.PolicyLeastLoaded
	// ClusterPolicyFrag places tenants by fragmentation gradient (the Frag
	// slice measure lifted to cluster scope).
	ClusterPolicyFrag = cluster.PolicyFrag
)

// ClusterPolicies lists the cluster placement policies in display order.
func ClusterPolicies() []string { return cluster.Policies() }

// RunCluster executes a full cluster-tier run: generate the open-arrival
// population, place it with the shared-state optimistic engine, execute the
// supernode runs (bit-identical at any Workers setting) and aggregate the
// SLO metrics.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// ParseOpenArrivalSpec parses the textual open-arrival form, e.g.
// "poisson:rate=0.5,horizon=2000s,life=80s,lambda=800ms".
func ParseOpenArrivalSpec(text string) (OpenArrivalSpec, error) {
	return workload.ParseOpenArrivalSpec(text)
}
