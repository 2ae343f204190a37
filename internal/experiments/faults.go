package experiments

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/interpose"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// faultRecovery is the interposer recovery configuration used by the
// degradation experiment. The call timeout must comfortably exceed the
// longest healthy blocking call (a device sync behind a contended queue can
// wait many virtual seconds), or the failure detector would mark live GPUs
// Suspect and distort placement in the no-fault baseline.
func faultRecovery() interpose.Recovery {
	return interpose.Recovery{CallTimeout: 60 * sim.Second}
}

// Faults measures graceful degradation: the Figure 10 supernode workload
// under GMin-Strings with recovery enabled, re-run with node 1 (two of the
// four GPUs) killed halfway through the baseline's makespan. For every pair
// it reports sustained throughput without the fault, throughput before and
// after the kill, and how many in-flight requests were recovered onto
// surviving GPUs versus lost.
func (s *Suite) Faults() *metrics.Table {
	defer s.arena.Close()
	tab := &metrics.Table{
		Title:  "Degradation: node 1 killed at half-makespan (GMin-Strings, 4-GPU supernode)",
		Labels: s.pairLabels(),
	}
	n := len(s.opt.Pairs)
	noFault := make([]float64, n)
	preKill := make([]float64, n)
	postKill := make([]float64, n)
	recovered := make([]float64, n)
	lost := make([]float64, n)
	s.forEach(n, func(i int) {
		p := s.opt.Pairs[i]
		cfg := core.Config{
			Nodes:    supernode(),
			Mode:     core.ModeStrings,
			Balance:  "GMin",
			Recovery: faultRecovery(),
		}
		base := s.run(scenario{
			key:     "faults/base/" + p.Label,
			cfg:     cfg,
			streams: s.pairStreams(p, true),
		})
		killAt := base.EndTime / 2
		cfg.Faults = faults.Plan{Faults: []faults.Fault{
			{At: killAt, Kind: faults.KillNode, Node: 1},
		}}
		faulted := s.run(scenario{
			key:     "faults/kill/" + p.Label,
			cfg:     cfg,
			streams: s.pairStreams(p, true),
		})
		noFault[i] = s.throughput(base, 0, base.EndTime)
		preKill[i] = s.throughput(faulted, 0, killAt)
		postKill[i] = s.throughput(faulted, killAt, faulted.EndTime)
		recovered[i] = float64(faulted.Recovered) / float64(s.opt.Seeds)
		lost[i] = float64(faulted.Lost) / float64(s.opt.Seeds)
	})
	tab.Add("no-fault req/s", noFault)
	tab.Add("pre-kill req/s", preKill)
	tab.Add("post-kill req/s", postKill)
	tab.Add("recovered", recovered)
	tab.Add("lost", lost)
	return tab.WithAverage()
}

// throughput computes the run's completed-request rate (requests per
// virtual second) inside the window (from, to], averaged across seed
// replications. Lost requests carry an error and do not count.
func (s *Suite) throughput(r *core.RunResult, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	done := 0
	for _, ev := range r.Requests {
		if ev.Err != "" {
			continue
		}
		at := sim.Time(ev.FinishedUS)
		if at > from && at <= to {
			done++
		}
	}
	window := (to - from).Seconds() * float64(s.opt.Seeds)
	return float64(done) / window
}
