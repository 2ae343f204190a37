package experiments

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The fragmentation study: a mixed fleet of MIG-capable devices serves
// tenants that each demand a dedicated slice (1g..7g). Placement quality now
// has a second axis the paper's whole-device policies never faced — a device
// with free capacity can still be useless to a big profile if earlier slices
// were scattered. The Frag policy descends the fleet's fragmentation
// gradient (place where the stranded-capacity measure grows least); this
// experiment compares it against GMin and GRR on packing efficiency and on
// the tenants' latency SLOs.

// fragPolicies are the placement policies under comparison.
var fragPolicies = []string{"Frag", "GMin", "GRR"}

// migFleet is the study's fleet: two nodes of two MIG-capable devices each —
// 28 compute sevenths total.
func migFleet() []core.NodeConfig {
	dev := gpu.TeslaC2050.WithMIG()
	return []core.NodeConfig{
		{Devices: []gpu.Spec{dev, dev}},
		{Devices: []gpu.Spec{dev, dev}},
	}
}

// fragStreams builds the study's tenant population: a steady trickle of
// small-slice tenants (a new 1g/2g/3g tenant every 2 s, holding its slice
// for roughly 15 s) loading about half the fleet, with whole-device (7g)
// and half-device (4g) tenants landing periodically on top. Whether those
// big tenants find contiguous capacity — or park while plenty of scattered
// capacity sits stranded — is decided purely by where the small slices
// went, which is the effect under measurement. Starts are staggered
// deterministically; only the per-stream arrival jitter is random.
func (s *Suite) fragStreams() []workload.StreamSpec {
	var streams []workload.StreamSpec
	tenant := int64(1)
	add := func(profile string, kind workload.Kind, count int, lambda, start sim.Time, node int) {
		streams = append(streams, workload.StreamSpec{
			Kind: kind, Count: count, Lambda: lambda, Node: node,
			Tenant: tenant, Weight: 1, SliceProfile: profile, Start: start,
		})
		tenant++
	}

	// Small tenants: 8 per unit of Options.Requests, profiles cycling
	// 1g,2g,1g,2g,3g (mean 1.8 sevenths). Gaussian is CPU-dominated, so its
	// service time barely stretches on a small slice and tenant lifetime
	// stays near Count·λ.
	smalls := 8 * s.opt.Requests
	profiles := []string{"1g", "2g", "1g", "2g", "3g"}
	for i := 0; i < smalls; i++ {
		add(profiles[i%len(profiles)], workload.Gaussian, s.opt.Requests,
			2*sim.Second, sim.Time(i)*2*sim.Second, i%2)
	}
	window := sim.Time(smalls) * 2 * sim.Second

	// Big tenants: BlackScholes on 7g (full-rate slice, ~6 s service) and
	// MonteCarlo on 4g, landing at fixed fractions of the small-tenant
	// window so each arrives into a partially loaded fleet.
	for i, at := range []float64{0.2, 0.5, 0.8} {
		add("7g", workload.BlackScholes, s.opt.longRequests(),
			6*sim.Second, sim.Time(at*float64(window)), i%2)
	}
	for i, at := range []float64{0.35, 0.65} {
		add("4g", workload.MonteCarlo, s.opt.longRequests(),
			8*sim.Second, sim.Time(at*float64(window)), i%2)
	}
	return streams
}

// fragRun executes the sliced-fleet scenario under one placement policy.
func (s *Suite) fragRun(policy string) *core.RunResult {
	return s.run(scenario{
		key:     "frag/" + policy,
		cfg:     core.Config{Nodes: migFleet(), Mode: core.ModeStrings, Balance: policy},
		streams: s.fragStreams(),
	})
}

// fragP99 is the p99 arrival-to-completion latency (seconds) across every
// request of the run; admission waits are inside it, so loose packing
// surfaces directly as tail latency.
func fragP99(r *core.RunResult) float64 {
	var all []float64
	for _, k := range workload.AllKinds {
		for _, t := range r.Completions(k) {
			all = append(all, float64(t))
		}
	}
	return metrics.Percentile(all, 0.99) / 1e6
}

// FragPacking compares slice-placement policies on the mixed-profile roster:
// stranded-capacity ratio (time-averaged fraction of free capacity unusable
// by the profile table), slices carved, placement attempts parked, mean
// admission wait and p99 request latency.
func (s *Suite) FragPacking() *metrics.Table {
	defer s.arena.Close()
	rows := [][]float64{
		make([]float64, len(fragPolicies)), // stranded ratio
		make([]float64, len(fragPolicies)), // slices carved
		make([]float64, len(fragPolicies)), // parked attempts
		make([]float64, len(fragPolicies)), // mean admission wait (s)
		make([]float64, len(fragPolicies)), // p99 latency (s)
	}
	s.forEach(len(fragPolicies), func(i int) {
		r := s.fragRun(fragPolicies[i])
		rows[0][i] = r.StrandedRatio()
		rows[1][i] = float64(r.SliceCarves)
		rows[2][i] = float64(r.SliceParks)
		rows[3][i] = float64(r.AvgAdmissionWait()) / 1e6
		rows[4][i] = fragP99(r)
	})
	tab := &metrics.Table{
		Title:  "Fragmentation study: slice placement on 4 MIG GPUs (mixed 1g-7g tenants)",
		Labels: fragPolicies,
	}
	tab.Add("Stranded", rows[0])
	tab.Add("Carved", rows[1])
	tab.Add("Parked", rows[2])
	tab.Add("AdmitWait(s)", rows[3])
	tab.Add("p99(s)", rows[4])
	return tab
}
