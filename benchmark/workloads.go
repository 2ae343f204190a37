package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Each workload has one size constant; warm-up, the traced twin and the
// smoke test scale it down through scaled.
const (
	nodeMegaRequests     = 35000 // Gaussian requests in the single Poisson stream
	fleetShardedRequests = 20000 // Gaussian requests over the four nodes
	policyGridPairs      = 6     // workload pairs A..F; Fig 9 apps scale with it
	clusterRequests      = 25000 // requests the tenant population issues, to within a few percent
)

// policyGridRequests is the per-stream request count of every grid cell, and
// latencyCellRequests that of the one cell run through core for its request
// log (the suite returns figure tables only).
const (
	policyGridRequests  = 8
	latencyCellRequests = 240
)

// passOpts selects how one pass runs. Timed passes use workers 1, no
// recorder and no span log.
type passOpts struct {
	workers int // sweep/cluster workers, or shard barrier workers
	traced  bool
	spans   *spanLog
}

// passOut is what one pass of a workload produced.
type passOut struct {
	attempted int // requests launched, plus those of tenants never placed
	failed    int // attempted requests that did not finish
	digest    string
	// stats holds the simulated statistics (sim_*) and the layer counts read
	// from public accessors, by metric name.
	stats    map[string]float64
	traces   []*trace.Set // one per recorder, when opts.traced
	warnings []string     // printed, and failures only at seed 1
}

// instance is one workload at one size with its inputs generated.
type instance interface {
	pass(o passOpts) (*passOut, error)
}

type workloadDef struct {
	name string
	// setup generates the inputs for seed at the given fraction of full size.
	setup func(seed int64, frac float64) (instance, error)
	// parallelMetric is the layer metric fed by the extra pass at nproc
	// workers ("" when the workload has no parallel variant).
	parallelMetric string
}

// The four workloads. BENCHMARK.json and README.md say why each is here.
var workloads = []workloadDef{
	{"node_mega", setupNodeMega, ""},
	{"fleet_sharded", setupFleetSharded, "shard.par_speedup"},
	{"policy_grid", setupPolicyGrid, "sweep.par_speedup"},
	{"cluster_bursty", setupClusterBursty, "cluster.par_speedup"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled returns ceil(full*frac), at least floor.
func scaled(full int, frac float64, floor int) int {
	return max(int(math.Ceil(float64(full)*frac)), floor)
}

func twoGPUNode() core.NodeConfig {
	return core.NodeConfig{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}
}

// ---- node_mega and fleet_sharded: one core cluster per pass ----

// coreInstance runs cfg+streams through core.New and Cluster.Run.
type coreInstance struct {
	cfg     core.Config
	streams []workload.StreamSpec
	sharded bool // Shards follows opts.workers
}

func setupNodeMega(seed int64, frac float64) (instance, error) {
	in := &coreInstance{
		cfg: core.Config{
			Seed:  seed,
			Nodes: []core.NodeConfig{twoGPUNode()},
			Mode:  core.ModeStrings, Balance: "GMin",
			Traces: workload.NewTraceBook(),
		},
		streams: []workload.StreamSpec{{
			Kind: workload.Gaussian, Count: scaled(nodeMegaRequests, frac, 50),
			LambdaFactor: 1.5, Node: 0, Tenant: 1, Weight: 1,
		}},
	}
	in.materialize()
	return in, nil
}

// setupFleetSharded differs from stringsched.RunMegaSharded in the arrival
// rate only. At that scenario's λ = 1.5 × solo no request ever waits, every
// latency is one of two service times and the p99 reads the same on every
// seed; at 0.03 × solo (one arrival per node every 60 ms) the GPUs are about
// a quarter busy, requests queue, and windows with several active shards
// outnumber the sparse stream's four to one.
func setupFleetSharded(seed int64, frac float64) (instance, error) {
	const nodes = 4
	in := &coreInstance{
		cfg: core.Config{
			Seed: seed,
			Mode: core.ModeStrings, Balance: "GMin",
			Traces: workload.NewTraceBook(),
		},
		sharded: true,
	}
	per := scaled(fleetShardedRequests, frac, 4*50) / nodes
	for i := 0; i < nodes; i++ {
		in.cfg.Nodes = append(in.cfg.Nodes, twoGPUNode())
		in.streams = append(in.streams, workload.StreamSpec{
			Kind: workload.Gaussian, Count: per, LambdaFactor: 0.03,
			Node: i, Tenant: int64(i + 1), Weight: 1,
		})
	}
	in.materialize()
	return in, nil
}

// materialize draws the arrival traces into the instance's trace book, so
// passes replay them instead of regenerating them.
func (in *coreInstance) materialize() {
	for si, s := range in.streams {
		in.cfg.Traces.Arrivals(in.cfg.Seed, si, s)
	}
}

func (in *coreInstance) pass(o passOpts) (*passOut, error) {
	cfg := in.cfg
	if in.sharded {
		cfg.Shards = o.workers
	}
	c, r, err := runCore(cfg, in.streams, o)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if in.sharded && !c.Sharded() {
		return nil, fmt.Errorf("fleet did not shard at Shards=%d", cfg.Shards)
	}
	out := newPassOut()
	defer o.spans.begin("digest")()
	out.addCoreRun(c, r)
	h := sha256.New()
	hashRequests(h, r)
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.finishLatency(requestLatencies(nil, r))
	if o.traced {
		for _, rec := range c.Recorders() {
			out.traces = append(out.traces, rec.Snapshot())
		}
	}
	return out, nil
}

// runCore builds a cluster and runs the streams to completion. The caller
// closes the cluster.
func runCore(cfg core.Config, streams []workload.StreamSpec, o passOpts) (*core.Cluster, *core.RunResult, error) {
	if o.traced {
		cfg.Recorder = trace.New()
	}
	endNew := o.spans.begin("core.new")
	c, err := core.New(cfg)
	endNew()
	if err != nil {
		return nil, nil, err
	}
	endRun := o.spans.begin("core.run")
	r, err := c.Run(streams)
	endRun()
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	if len(r.Errors) > 0 {
		c.Close()
		return nil, nil, fmt.Errorf("application errors: %s", r.Errors[0])
	}
	if r.Finished+r.Lost != r.Launched {
		c.Close()
		return nil, nil, fmt.Errorf("finished %d + lost %d != launched %d", r.Finished, r.Lost, r.Launched)
	}
	return c, r, nil
}

func newPassOut() *passOut { return &passOut{stats: make(map[string]float64)} }

// addCoreRun folds one core run's outcome and its layer counters into out.
func (out *passOut) addCoreRun(c *core.Cluster, r *core.RunResult) {
	out.attempted += r.Launched
	out.failed += r.Launched - r.Finished
	st := out.stats
	st["sim.events"] += float64(c.Dispatched())
	jumps, skipped := c.FastForwards()
	st["sim.ff_jumps"] += float64(jumps)
	st["sim.ff_skipped_s"] += skipped.Seconds()
	st["sim.virtual_s"] += r.EndTime.Seconds()
	ss := c.ShardStats()
	st["shard.windows"] += float64(ss.Windows)
	st["shard.solo_runs"] += float64(ss.SoloRuns)
	st["shard.solo_stops"] += float64(ss.SoloStops)
	st["shard.messages"] += float64(ss.Messages)
	for _, d := range c.Devices() {
		ds := d.Stats()
		st["gpu.kernels_done"] += float64(ds.KernelsDone)
		st["gpu.copies_done"] += float64(ds.CopiesDone)
		st["gpu.ctx_switches"] += float64(ds.Switches)
		st["gpu.compute_busy_s"] += ds.ComputeBusy.Seconds()
		st["gpu.copy_busy_s"] += (ds.H2DBusy + ds.D2HBusy).Seconds()
		st["gpu.device_s"] += ds.Now.Seconds()
	}
	if m := c.Mapper(); m != nil {
		sel, fb := m.Stats()
		st["balancer.selections"] += float64(sel)
		st["balancer.feedbacks"] += float64(fb)
		st["balancer.spills"] += float64(m.Spills())
	}
	st["sim_jain_fairness"] = metrics.JainFairness(r.FairnessAllocations())
	var alone, shared []sim.Time
	for _, k := range r.Kinds() {
		alone = append(alone, workload.ProfileFor(k).SoloRuntime)
		shared = append(shared, r.AvgCompletion(k))
	}
	st["sim_weighted_speedup"] = metrics.WeightedSpeedup(alone, shared)
}

// requestLatencies appends the arrival-to-completion latencies, in seconds,
// of r's finished requests.
func requestLatencies(dst []float64, r *core.RunResult) []float64 {
	for _, ev := range r.Requests {
		if ev.Err == "" {
			dst = append(dst, ev.CompletionTime().Seconds())
		}
	}
	return dst
}

// finishLatency derives the latency percentiles and the ratios that need the
// whole pass's sums.
func (out *passOut) finishLatency(lat []float64) {
	st := out.stats
	st["sim_p50_latency_s"] = metrics.Percentile(lat, 0.50)
	st["sim_p99_latency_s"] = metrics.Percentile(lat, 0.99)
	st["sim_p999_latency_s"] = metrics.Percentile(lat, 0.999)
	st["sim_latency_samples"] = float64(len(lat))
	if v := st["sim.virtual_s"]; v > 0 {
		st["sim.ff_skip_ratio"] = st["sim.ff_skipped_s"] / v
	}
	if d := st["gpu.device_s"]; d > 0 {
		st["gpu.compute_busy_frac"] = st["gpu.compute_busy_s"] / d
		st["gpu.copy_busy_frac"] = st["gpu.copy_busy_s"] / d
	}
}

// hashRequests writes r's request log, in submission order, into h.
func hashRequests(h hash.Hash, r *core.RunResult) {
	var buf [8 * 8]byte
	for _, ev := range r.SortedRequests() {
		for i, v := range [...]int64{
			int64(ev.AppID), int64(ev.Kind), ev.Tenant, int64(ev.Node), int64(ev.GID),
			ev.SubmittedUS, ev.StartedUS, ev.FinishedUS,
		} {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:])
		h.Write([]byte(ev.Err))
	}
}

// hashTable writes a figure table's names and exact values into h.
func hashTable(h hash.Hash, t *metrics.Table) {
	var buf [8]byte
	for _, l := range t.Labels {
		h.Write([]byte(l))
	}
	for _, s := range t.Series {
		h.Write([]byte(s.Name))
		for _, v := range s.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
}

// ---- policy_grid: the figure suite plus one latency cell ----

type gridInstance struct {
	opt  experiments.Options
	cell coreInstance // the GWtMin+PS supernode cell run through core
}

func setupPolicyGrid(seed int64, frac float64) (instance, error) {
	pairs := workload.Pairs()[:scaled(policyGridPairs, frac, 1)]
	apps := workload.AllKinds[:scaled(len(workload.AllKinds), frac, 1)]
	in := &gridInstance{opt: experiments.Options{
		Seed: seed, Requests: policyGridRequests, Pairs: pairs, Apps: apps,
	}}
	// The latency cell: the applications of the full grid's last pair on the
	// four-GPU supernode under GWtMin balancing and PS device scheduling —
	// Fig 12's GWtMinPS-Strings system — at a request count that supports a
	// tail percentile.
	n := scaled(latencyCellRequests, frac, 20)
	p := workload.Pairs()[policyGridPairs-1]
	in.cell = coreInstance{
		cfg: core.Config{
			Seed: seed,
			Nodes: []core.NodeConfig{twoGPUNode(),
				{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}}},
			Mode: core.ModeStrings, Balance: "GWtMin", DevPolicy: "PS",
			Traces: workload.NewTraceBook(),
		},
		streams: []workload.StreamSpec{
			{Kind: p.Long, Count: n * 2 / 3, LambdaFactor: 0.6, Node: 0, Tenant: 1, Weight: 1},
			{Kind: p.Short, Count: n, LambdaFactor: 0.6, Node: 1, Tenant: 2, Weight: 1},
		},
	}
	in.cell.materialize()
	return in, nil
}

// gridShape returns how many simulations and how many run-to-completion
// requests the suite's five figures hold for the given options. It restates
// the figures' structure; pass checks the simulation count against
// Suite.Runs so a change to the figures cannot leave it silently stale.
// Fig 11's fixed-window streams are launched, not run to completion, and are
// left out of the request count.
func gridShape(opt experiments.Options) (sims, requests int) {
	r := opt.Requests
	long := max(2, r*2/3)
	pairs, apps := len(opt.Pairs), len(opt.Apps)
	longKinds, shortKinds := map[workload.Kind]bool{}, map[workload.Kind]bool{}
	for _, p := range opt.Pairs {
		longKinds[p.Long] = true
		shortKinds[p.Short] = true
	}
	perPair := long + r
	fig9 := 7 * apps                                        // CUDA baseline + six systems
	fig10 := 7 * pairs                                      // 1-node GRR baseline + six systems
	fig11 := 3 * (len(longKinds) + len(shortKinds) + pairs) // three systems: solos + pair
	fig12 := 3 * pairs
	fig14 := 4 * pairs
	sims = fig9 + fig10 + fig11 + fig12 + fig14
	requests = fig9*r + (fig10+fig12+fig14)*perPair
	return sims, requests
}

func (in *gridInstance) pass(o passOpts) (*passOut, error) {
	opt := in.opt
	opt.Workers = o.workers
	out := newPassOut()
	s := experiments.NewSuite(opt)
	figs := []struct {
		name string
		run  func() *metrics.Table
	}{
		{"fig9", s.Fig9}, {"fig10", s.Fig10}, {"fig11", s.Fig11},
		{"fig12", s.Fig12}, {"fig14", s.Fig14},
	}
	tables := make(map[string]*metrics.Table, len(figs))
	for _, f := range figs {
		end := o.spans.begin("experiments." + f.name)
		tables[f.name] = f.run() // the suite panics on any application error
		end()
	}
	c, r, err := runCore(in.cell.cfg, in.cell.streams, o)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	defer o.spans.begin("digest")()
	sims, requests := gridShape(opt)
	if s.Runs != sims {
		return nil, fmt.Errorf("suite ran %d simulations, gridShape expects %d: the figures changed shape", s.Runs, sims)
	}
	out.addCoreRun(c, r)
	out.attempted += requests
	out.stats["sweep.sims"] = float64(sims + 1)
	h := sha256.New()
	for _, f := range figs {
		hashTable(h, tables[f.name])
	}
	hashRequests(h, r)
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.finishLatency(requestLatencies(nil, r))
	if o.traced {
		for _, rec := range c.Recorders() {
			out.traces = append(out.traces, rec.Snapshot())
		}
	}

	st := out.stats
	// sim_weighted_speedup stays the latency cell's (addCoreRun): the figures'
	// own speedups swing by a fifth from seed to seed, too much for a bound.
	st["experiments.sim_fig9_speedup"] = avgOf(tables["fig9"], "GWtMin-Strings")
	st["sim_jain_fairness"] = avgOf(tables["fig11"], "TFS-Strings")
	st["experiments.paper_err_pct"] = paperErrPct(tables)
	out.warnings = orderViolations(tables)
	st["experiments.order_violations"] = float64(len(out.warnings))
	return out, nil
}

// avgOf returns the AVG column of the named series (NaN if missing).
func avgOf(t *metrics.Table, series string) float64 {
	row := t.Row(series)
	if len(row) == 0 {
		return math.NaN()
	}
	return row[len(row)-1]
}

// ---- cluster_bursty: the cluster tier ----

type clusterInstance struct {
	cfg    cluster.Config
	births []workload.TenantBirth
}

func setupClusterBursty(seed int64, frac float64) (instance, error) {
	spec, err := workload.ParseOpenArrivalSpec(
		"bursty:rate=0.6,horizon=1s,kind=GA,life=80s,lambda=800ms,bigevery=8,bigslots=4,burst=8,spread=2s")
	if err != nil {
		return nil, err
	}
	sn := cluster.Supernode{Nodes: []core.NodeConfig{twoGPUNode(), twoGPUNode()}}
	in := &clusterInstance{cfg: cluster.Config{
		Supernodes: []cluster.Supernode{sn, sn, sn},
		Policy:     cluster.PolicyLeastLoaded,
		// The park queue never overflows, so no tenant is rejected and no
		// request fails; overload shows as admission wait instead.
		ParkCapacity: 1 << 20,
	}}

	// A tenth of the tenants live eleven times longer than the rest, so the
	// population's request count swings by a third from draw to draw, and
	// memory and set-up time with it. The size constant is therefore a request
	// count, met by rejection: of 32 run seeds derived from seed, keep the one
	// whose population comes closest. Each candidate regenerates the
	// population cluster.Run will draw (pass checks the two agree), which also
	// lets pass count the requests of tenants that are never placed.
	target := scaled(clusterRequests, frac, 1500)
	perSecond := spec.Rate * float64(spec.MeanLife) / float64(spec.Lambda)
	spec.Horizon = sim.FromSeconds(float64(target) / perSecond)
	in.cfg.Arrivals = spec
	bestMiss := -1
	for j := uint64(0); j < 32; j++ {
		runSeed := sweep.FoldSeed(seed, j)
		births, err := spec.Births(rand.New(rand.NewSource(sweep.KeySeed(runSeed, "cluster/arrivals"))))
		if err != nil {
			return nil, err
		}
		requests := 0
		for _, b := range births {
			requests += b.Requests
		}
		if miss := max(requests-target, target-requests); bestMiss < 0 || miss < bestMiss {
			bestMiss, in.births, in.cfg.Seed = miss, births, runSeed
		}
	}
	return in, nil
}

func (in *clusterInstance) pass(o passOpts) (*passOut, error) {
	cfg := in.cfg
	cfg.Workers = o.workers
	cfg.Traced = o.traced
	end := o.spans.begin("cluster.run")
	res, err := cluster.Run(cfg)
	end()
	if err != nil {
		return nil, err
	}
	defer o.spans.begin("digest")()
	log := res.Log
	if log.Placed+log.Rejected != log.Born {
		return nil, fmt.Errorf("placed %d + rejected %d != born %d", log.Placed, log.Rejected, log.Born)
	}
	if log.Born != len(in.births) {
		return nil, fmt.Errorf("cluster.Run drew %d tenants, the harness %d: the arrival seed derivation changed", log.Born, len(in.births))
	}
	if log.Born == 0 {
		return nil, errors.New("no tenant was born within the horizon")
	}
	out := newPassOut()
	placedReqs := 0
	for _, b := range in.births {
		out.attempted += b.Requests
	}
	for _, p := range log.Placements {
		placedReqs += in.births[p.Tenant-1].Requests
	}
	if placedReqs != res.Requests {
		return nil, fmt.Errorf("placed tenants hold %d requests, cluster.Run submitted %d", placedReqs, res.Requests)
	}
	out.failed = out.attempted - res.Finished

	h := sha256.New()
	var buf [8 * 7]byte
	for _, p := range log.Placements {
		for i, v := range [...]int64{int64(p.Tenant), int64(p.Supernode), int64(p.Node),
			int64(p.Slots), int64(p.At), int64(p.Wait), int64(p.Retries)} {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:])
	}
	var lat []float64
	var latSum float64
	var util float64
	for _, sn := range res.Supernodes {
		hashRequests(h, sn.Run)
		lat = requestLatencies(lat, sn.Run)
		util += sn.Utilization
		if o.traced {
			set, err := trace.ParseJSONL(sn.TraceJSONL)
			if err != nil {
				return nil, fmt.Errorf("supernode trace: %w", err)
			}
			out.traces = append(out.traces, set)
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	for _, l := range lat {
		latSum += l
	}

	st := out.stats
	st["sim.events"] = float64(res.Events)
	st["sim.virtual_s"] = res.EndTime.Seconds()
	st["cluster.born"] = float64(log.Born)
	st["cluster.placed"] = float64(log.Placed)
	st["cluster.parked"] = float64(log.Parked)
	st["cluster.rejected"] = float64(log.Rejected)
	st["cluster.conflicts"] = float64(log.Conflicts)
	st["cluster.refreshes"] = float64(log.Refreshes)
	if n := log.Placed + log.Conflicts; n > 0 {
		st["cluster.commit_success_ratio"] = float64(log.Placed) / float64(n)
	}
	st["cluster.util_mean"] = util / float64(len(res.Supernodes))
	st["cluster.sim_admission_wait_s"] = res.AvgAdmissionWait.Seconds()
	st["sim_jain_fairness"] = res.Fairness
	if len(lat) > 0 {
		solo := workload.ProfileFor(cfg.Arrivals.Kind).SoloRuntime.Seconds()
		st["sim_weighted_speedup"] = solo / (latSum / float64(len(lat)))
	}
	out.finishLatency(lat)
	if got := sim.FromSeconds(st["sim_p99_latency_s"]); got != res.P99 {
		return nil, fmt.Errorf("p99 from the request logs %v != cluster.Result.P99 %v", got, res.P99)
	}
	return out, nil
}
