// Package experiments reproduces the paper's evaluation: one runner per
// table and figure (Table I, Figures 1, 2 and 9–15), plus the ablations
// motivated by the design discussion. Each runner assembles the scenario's
// cluster topology, request streams and policy matrix, runs the simulation,
// and reports the same rows/series the paper plots.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options scales the experiments. The zero value selects paper-like
// defaults; tests and benchmarks shrink Requests to bound runtime.
type Options struct {
	Seed int64

	// Requests is the number of requests per short-job (Group B) stream;
	// long-job (Group A) streams receive two-thirds of it (the paper's
	// "many short running rather than a few long running" mix).
	Requests int

	// LambdaFactor scales each stream's mean inter-arrival time relative
	// to its application's solo runtime (paper: λ proportional to runtime).
	LambdaFactor float64

	// Pairs restricts the 24-pair experiments (nil = all).
	Pairs []workload.Pair

	// Apps restricts the per-application experiments (nil = all ten).
	Apps []workload.Kind

	// Seeds replicates every scenario across this many consecutive seeds
	// and pools the results (completions appended, services summed), so
	// figure values average over arrival randomness. 0 or 1 runs a single
	// replication.
	Seeds int

	// Workers bounds how many independent simulations run concurrently
	// (each scenario owns its own virtual clock, so scenarios parallelize
	// perfectly). 0 selects GOMAXPROCS; 1 forces sequential execution.
	// Results are identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 10
	}
	if o.LambdaFactor <= 0 {
		o.LambdaFactor = 0.6
	}
	if o.Pairs == nil {
		o.Pairs = workload.Pairs()
	}
	if o.Apps == nil {
		o.Apps = workload.AllKinds
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seeds <= 0 {
		o.Seeds = 1
	}
	return o
}

// longRequests returns the Group A stream length.
func (o Options) longRequests() int {
	n := o.Requests * 2 / 3
	if n < 2 {
		n = 2
	}
	return n
}

// The paper's testbed nodes.
func nodeA() core.NodeConfig {
	return core.NodeConfig{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}
}
func nodeB() core.NodeConfig {
	return core.NodeConfig{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}}
}

// singleNode is the small-scale two-GPU server.
func singleNode() []core.NodeConfig { return []core.NodeConfig{nodeA()} }

// supernode is the emulated four-GPU server.
func supernode() []core.NodeConfig { return []core.NodeConfig{nodeA(), nodeB()} }

// oneGPU is the fairness experiments' single shared device.
func oneGPU() []core.NodeConfig {
	return []core.NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}
}

// Suite memoizes scenario results so figures sharing baselines (e.g. the
// single-node GRR-Rain run) pay for them once. A suite is safe for
// concurrent use: scenarios deduplicate through a singleflight cache and
// run on independent virtual clocks.
type Suite struct {
	opt   Options
	mu    sync.Mutex
	cache map[string]*cacheEntry

	// arena lends every scenario's cluster a warm kernel and free lists, so
	// back-to-back runs on one worker reuse what the earlier ones built. A
	// returned slab is reset and holds no goroutine, so a suite needs no
	// Close.
	arena core.Arena

	// traces shares materialized arrival traces across scenarios — every
	// policy of a figure replays the identical workload, so the streams
	// are derived once and aliased read-only everywhere.
	traces *workload.TraceBook

	// Runs counts distinct simulations executed (cache misses).
	Runs int
}

// cacheEntry is a singleflight slot: the first caller executes the
// scenario, every other caller waits on the Once.
type cacheEntry struct {
	once sync.Once
	res  *core.RunResult
}

// NewSuite creates a suite with the given options.
func NewSuite(opt Options) *Suite {
	return &Suite{
		opt:    opt.withDefaults(),
		cache:  make(map[string]*cacheEntry),
		traces: workload.NewTraceBook(),
	}
}

// scenario identifies a memoizable run.
type scenario struct {
	key     string
	cfg     core.Config
	streams []workload.StreamSpec
	horizon sim.Time // 0 = run to completion
}

// run executes (or recalls) a scenario.
func (s *Suite) run(sc scenario) *core.RunResult {
	s.mu.Lock()
	e, ok := s.cache[sc.key]
	if !ok {
		e = &cacheEntry{}
		s.cache[sc.key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		pooled := core.NewRunResultForPooling()
		sc.cfg.Arena = &s.arena
		sc.cfg.Traces = s.traces
		for rep := 0; rep < s.opt.Seeds; rep++ {
			sc.cfg.Seed = s.repSeed(rep)
			c, err := core.New(sc.cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			var r *core.RunResult
			if sc.horizon > 0 {
				r, err = c.RunUntil(sc.streams, sc.horizon)
			} else {
				r, err = c.Run(sc.streams)
			}
			c.Close()
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			if len(r.Errors) > 0 {
				panic(fmt.Sprintf("experiments: scenario %s: app errors: %v", sc.key, r.Errors[0]))
			}
			pooled.Merge(r)
			s.mu.Lock()
			s.Runs++
			s.mu.Unlock()
		}
		e.res = pooled
	})
	if e.res == nil {
		panic(fmt.Sprintf("experiments: scenario %s failed in another goroutine", sc.key))
	}
	return e.res
}

// repSeed derives replication rep's run seed. Replication 0 runs the base
// seed itself (the golden figures pin exactly that), later replications
// fold the replication index through sweep.FoldSeed so replication streams
// are decorrelated and order-independent.
func (s *Suite) repSeed(rep int) int64 {
	if rep == 0 {
		return s.opt.Seed
	}
	return sweep.FoldSeed(s.opt.Seed, uint64(rep))
}

// forEach runs fn(i) for every index over the blessed worker pool
// (internal/parallel). Panics in workers propagate to the caller. Output
// written by index keeps results deterministic regardless of scheduling.
func (s *Suite) forEach(n int, fn func(i int)) {
	parallel.Do(n, s.opt.Workers, fn)
}

// grid runs a rows×cols experiment matrix (policy × pair, system × app) as
// one flat, row-major index space over the worker pool, so the whole figure
// parallelizes across both axes instead of fanning out one policy row at a
// time. fn must be independent per cell (memoized scenario runs are fine:
// the singleflight cache dedupes shared baselines); results come back
// grouped by row, each row in column order.
func (s *Suite) grid(rows, cols int, fn func(r, c int) float64) [][]float64 {
	flat := parallel.Map(rows*cols, s.opt.Workers, func(i int) float64 { return fn(i/cols, i%cols) })
	out := make([][]float64, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

// stream builds one request stream.
func (s *Suite) stream(kind workload.Kind, count, node int, tenant int64) workload.StreamSpec {
	return workload.StreamSpec{
		Kind: kind, Count: count, LambdaFactor: s.opt.LambdaFactor,
		Node: node, Tenant: tenant, Weight: 1,
	}
}

// pairStreams builds the Group A/Group B streams of a pair. Under the
// supernode the long stream arrives at node 0 and the short one at node 1;
// collapsed to one node both arrive at node 0.
func (s *Suite) pairStreams(p workload.Pair, twoNodes bool) []workload.StreamSpec {
	nodeOfB := 0
	if twoNodes {
		nodeOfB = 1
	}
	return []workload.StreamSpec{
		s.stream(p.Long, s.opt.longRequests(), 0, 1),
		s.stream(p.Short, s.opt.Requests, nodeOfB, 2),
	}
}

// pairBaseline1N is the common baseline of Figures 10, 12, 14 and 15: the
// pair served by single-node GRR (Rain's remoting generation, as the
// cross-figure arithmetic of the paper implies).
func (s *Suite) pairBaseline1N(p workload.Pair) *core.RunResult {
	return s.run(scenario{
		key:     "base1N/" + p.Label,
		cfg:     core.Config{Nodes: singleNode(), Mode: core.ModeRain, Balance: "GRR"},
		streams: s.pairStreams(p, false),
	})
}

// pairBaseline4G is Figure 13's baseline: the supernode shared under GRR
// (Rain).
func (s *Suite) pairBaseline4G(p workload.Pair) *core.RunResult {
	return s.run(scenario{
		key:     "base4G/" + p.Label,
		cfg:     core.Config{Nodes: supernode(), Mode: core.ModeRain, Balance: "GRR"},
		streams: s.pairStreams(p, true),
	})
}

// weightedSpeedup computes the pair's weighted speedup of run over base:
// the mean over the two applications of base's average completion over
// run's (paper eq. 2 with T_alone taken from the baseline scheduler).
func weightedSpeedup(p workload.Pair, base, run *core.RunResult) float64 {
	alone := []sim.Time{base.AvgCompletion(p.Long), base.AvgCompletion(p.Short)}
	shared := []sim.Time{run.AvgCompletion(p.Long), run.AvgCompletion(p.Short)}
	return metrics.WeightedSpeedup(alone, shared)
}

// pairLabels lists the configured pairs' labels.
func (s *Suite) pairLabels() []string {
	out := make([]string, len(s.opt.Pairs))
	for i, p := range s.opt.Pairs {
		out[i] = p.Label
	}
	return out
}
