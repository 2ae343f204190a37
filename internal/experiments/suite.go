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
	"repro/internal/scenario"
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

// The paper's testbed fleets. Cells share them, and nothing writes them.
var (
	nodeA = core.NodeConfig{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}
	nodeB = core.NodeConfig{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}}

	singleNode = []core.NodeConfig{nodeA}                                 // the small-scale two-GPU server
	supernode  = []core.NodeConfig{nodeA, nodeB}                          // the emulated four-GPU server
	oneGPU     = []core.NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}} // the fairness experiments' shared device
)

// Suite memoizes scenario results under their text form, so figures sharing
// a run (the single-node GRR-Rain baseline, or Figure 13's baseline, which is
// Figure 10's GRR-Rain cell) pay for it once. A suite is safe for concurrent
// use: scenarios deduplicate through a singleflight cache and run on
// independent virtual clocks.
type Suite struct {
	opt   Options
	base  scenario.Scenario // the scenario default at the options' λ and seed
	mu    sync.Mutex
	cache map[string]*cacheEntry
	key   []byte // the text form of the lookup holding mu

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
	s := &Suite{
		opt:    opt.withDefaults(),
		base:   scenario.Default(),
		cache:  make(map[string]*cacheEntry),
		traces: workload.NewTraceBook(),
	}
	s.base.Lambda, s.base.Seed = s.opt.LambdaFactor, s.opt.Seed
	return s
}

// run executes (or recalls) a scenario. A lookup that hits allocates nothing:
// the key is built into the suite's buffer.
func (s *Suite) run(sc scenario.Scenario) *core.RunResult {
	s.mu.Lock()
	s.key = sc.Append(s.key[:0])
	e, ok := s.cache[string(s.key)]
	if !ok {
		e = &cacheEntry{}
		s.cache[string(s.key)] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		var pooled *core.RunResult
		for rep := 0; rep < s.opt.Seeds; rep++ {
			sc.Seed = s.repSeed(rep)
			c, r := mustRun(sc, scenario.Env{Arena: &s.arena, Traces: s.traces})
			c.Close()
			if pooled == nil {
				pooled = r // later replications pool into the first's result
			} else {
				pooled.Merge(r)
			}
			s.mu.Lock()
			s.Runs++
			s.mu.Unlock()
		}
		e.res = pooled
	})
	if e.res == nil {
		panic(fmt.Sprintf("experiments: the run failed in another goroutine (replay: strings-run -scenario '%s')", sc))
	}
	return e.res
}

// mustRun runs sc in env and returns its cluster open, for the devices to be
// read. A failed run panics with the text that replays it.
func mustRun(sc scenario.Scenario, env scenario.Env) (*core.Cluster, *core.RunResult) {
	c, r, err := sc.Run(env)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v (replay: strings-run -scenario '%s')", err, sc))
	}
	return c, r
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

// system is one series of a figure: a runtime mode with a balancing policy
// and a device-level policy, each "" for the scenario default.
type system struct {
	name     string
	mode     core.Mode
	bal, dev string
}

// grrRain is GRR balancing under Rain, the baseline system.
var grrRain = system{name: "GRR-Rain", mode: core.ModeRain, bal: "GRR"}

// on is sys serving streams on fleet, at the suite's λ and seed.
func (s *Suite) on(sys system, fleet []core.NodeConfig, streams ...scenario.Stream) scenario.Scenario {
	sc := s.base
	sc.Fleet, sc.Mode, sc.Streams = fleet, sys.mode, streams
	if sys.bal != "" {
		sc.Balance = sys.bal
	}
	if sys.dev != "" {
		sc.Dev = sys.dev
	}
	return sc
}

// pairStreams builds the Group A/Group B streams of a pair. Under the
// supernode the long stream arrives at node 0 and the short one at node 1;
// collapsed to one node both arrive at node 0.
func (s *Suite) pairStreams(p workload.Pair, twoNodes bool) []scenario.Stream {
	nodeOfB := 0
	if twoNodes {
		nodeOfB = 1
	}
	return []scenario.Stream{
		{Kind: p.Long, Count: s.opt.longRequests()},
		{Kind: p.Short, Count: s.opt.Requests, Node: nodeOfB},
	}
}

// pairBaseline1N is the common baseline of Figures 10, 12, 14 and 15: the
// pair served by single-node GRR (Rain's remoting generation, as the
// cross-figure arithmetic of the paper implies).
func (s *Suite) pairBaseline1N(p workload.Pair) *core.RunResult {
	return s.run(s.on(grrRain, singleNode, s.pairStreams(p, false)...))
}

// pairBaseline4G is Figure 13's baseline: the supernode shared under GRR
// (Rain), which is Figure 10's GRR-Rain cell.
func (s *Suite) pairBaseline4G(p workload.Pair) *core.RunResult {
	return s.run(s.on(grrRain, supernode, s.pairStreams(p, true)...))
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
