package repro

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/workload"
)

// throughputRun drives one instance of the standard simulator-throughput
// scenario (the same two-GPU Strings node BenchmarkSimulatorThroughput
// uses) and returns the kernel event count.
func throughputRun(seed int64) (uint64, error) {
	c, err := core.New(core.Config{
		Seed: seed,
		Nodes: []core.NodeConfig{{Devices: []gpu.Spec{
			gpu.Quadro2000, gpu.TeslaC2050,
		}}},
		Mode:    core.ModeStrings,
		Balance: "GMin",
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.MonteCarlo, Count: 6, LambdaFactor: 0.5,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil {
		return 0, err
	}
	if len(r.Errors) > 0 {
		return 0, fmt.Errorf("simulation errors: %v", r.Errors)
	}
	return c.K.Dispatched(), nil
}

// minMallocs runs window n times back to back on one P and returns the fewest
// heap allocations any one run made. runtime.MemStats.Mallocs counts the whole
// process, so a single window reads two things: what the measured path
// allocates, which recurs in every window, and what the runtime allocates on
// its own account while the window is open (a goroutine descriptor the
// scheduler could not reuse because the test moved to another P — hence one
// P, as testing.AllocsPerRun does — or the first window after a collection
// refilling what the collection emptied), which lands in some windows and not
// in others. The minimum keeps the first and excludes the second; it cannot
// hide an allocation the path makes every time.
func minMallocs(n int, window func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	var ms0, ms1 runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		window()
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.Mallocs-ms0.Mallocs)
	}
	return least
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestAllocBudgetPerEvent pins the zero-alloc steady state of the event hot
// path: across repeated runs of the standard throughput scenario, total heap
// allocations per kernel event must stay within budget (the repo benchmark
// reports the same quantity on its own workloads as sim.allocs_per_event).
// The measured figure is ~0.03 allocs/event — entirely
// per-run warmup (waiter-ring growth, op/event pool priming, per-request
// session setup); the dispatch loop itself allocates nothing once warm. The
// 0.05 ceiling leaves room for noise but fails on any real regression: the
// seed tree sat at ~0.71 allocs/event, fourteen times over this budget.
func TestAllocBudgetPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	const (
		iters  = 25
		budget = 0.05
	)
	// Warm one run outside the measurement so one-time global init
	// (profile tables, policy registries) doesn't bill to the budget.
	if _, err := throughputRun(1); err != nil {
		t.Fatal(err)
	}
	var events uint64
	allocs := minMallocs(1, func() {
		for i := 0; i < iters; i++ {
			ev, err := throughputRun(int64(2 + i))
			if err != nil {
				t.Fatal(err)
			}
			events += ev
		}
	})
	perEvent := float64(allocs) / float64(events)
	t.Logf("%d allocs over %d events: %.4f allocs/event (budget %.2f)", allocs, events, perEvent, budget)
	if perEvent > budget {
		t.Fatalf("alloc budget exceeded: %.4f allocs/event > %.2f", perEvent, budget)
	}
}

// TestAllocBudgetPerRequest is the same budget in the unit the paper's load
// comes in: one application instance per request, so a frontend thread, a
// backend thread and some twenty marshalled calls each. A request allocates
// nothing once the pools are warm — sessions with their RCB entries and the
// Rain processes they host, frontends with their CUDA processes, connections,
// lanes, GPU contexts and streams, frames with their reports and mapper
// messages are all reused — so what the Strings shapes read is construction
// spread over the requests: the repo benchmark's node_mega shape (one 2-GPU
// Strings node, GMin, a sparse Gaussian stream) and its cluster_bursty shape
// (cluster.Run over the bursty spec, three supernodes, a 60 s horizon). The
// sparse Rain and CUDA shapes (node_mega's node and stream under the two
// baselines) read the marginal cost of a request instead, the allocations of
// 150 requests less those of 50 over the 100 between, which leaves
// construction out. Each budget is the reading rounded up to the next tenth,
// so one more allocation a request fails it: nothing static checks
// allocation, this test and its siblings are the only gate the request path
// has (DESIGN.md §13). The Strings shapes read 3.13 and 6.19 while the RCB
// entry, its signal, the report and the relayed mapper messages were
// allocated per request; the Rain and CUDA shapes 15.15 and 13.11 while every
// process built its runtime, context and streams and kept its context on the
// device after it exited.
func TestAllocBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	for _, shape := range []struct {
		name   string
		run    func(seed int64) (requests int)
		budget float64
	}{
		{"node_mega", func(seed int64) int { runMega(t, seed, 16000); return 16000 }, 0.1},         // measured 0.04
		{"cluster_bursty", func(seed int64) int { return runBursty(t, seed, 60*sim.Second) }, 0.3}, // measured 0.23
	} {
		shape.run(1)
		var requests int
		allocs := minMallocs(1, func() { requests = shape.run(2) })
		perRequest := float64(allocs) / float64(requests)
		t.Logf("%s: %.3f allocs/request over %d requests, construction included (budget %.1f)", shape.name, perRequest, requests, shape.budget)
		if perRequest > shape.budget {
			t.Errorf("%s: alloc budget exceeded: %.3f allocs/request > %.1f", shape.name, perRequest, shape.budget)
		}
	}
	for _, shape := range []struct {
		mode   core.Mode
		budget float64
	}{
		{core.ModeRain, 0.2}, // measured 0.12
		{core.ModeCUDA, 0.1}, // measured 0.09
	} {
		runSparse(t, shape.mode, 1, 50)
		at := func(requests int) int64 {
			return int64(minMallocs(3, func() { runSparse(t, shape.mode, 2, requests) }))
		}
		perRequest := float64(at(150)-at(50)) / 100
		t.Logf("sparse %v: %.2f allocs/request between 50 and 150 requests (budget %.1f)", shape.mode, perRequest, shape.budget)
		if perRequest > shape.budget {
			t.Errorf("sparse %v: alloc budget exceeded: %.2f allocs/request > %.1f", shape.mode, perRequest, shape.budget)
		}
	}
}

// runSparse runs node_mega's shape, a Gaussian stream at 1.5 times the solo
// rate on one 2-GPU node, under mode.
func runSparse(t *testing.T, mode core.Mode, seed int64, requests int) {
	t.Helper()
	c, err := core.New(core.Config{
		Seed:  seed,
		Nodes: []core.NodeConfig{{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}},
		Mode:  mode, Balance: "GMin",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Run([]workload.StreamSpec{{Kind: workload.Gaussian, Count: requests, LambdaFactor: 1.5, Node: 0, Tenant: 1, Weight: 1}})
	if err != nil || len(r.Errors) > 0 || r.Finished != requests {
		t.Fatalf("sparse %v run: %v %v, finished %d of %d", mode, err, r.Errors, r.Finished, requests)
	}
}

// TestAllocBudgetSuite is the budget where the warm slabs pay off: a reduced
// Figs 9–14 grid (two pairs, two applications, four requests a stream) through
// one experiments.Suite on one worker, where each of its short simulations
// borrows the kernel, sessions, frontends, processes and GPU contexts the
// ones before it left in core's arena. The unit is the simulation, and
// the budget the reading rounded up to the next tenth. The grid read 526.9
// while every cluster started with empty free lists and every Rain or CUDA
// process built its runtime, context and streams, 357.20 while every
// cluster built its devices, device schedulers and packers, 167.42 while
// Fig 13 ran its 4-GPU GRR baseline again under a name of its own and two
// CUDA threads' overlapping device syncs dropped one wait list, and 163.93
// while every cluster built its gPool, mapper, environment and fabrics, a
// horizon's open connections were dropped, and the suite copied each result,
// and 112.40 while every suite started on an arena of its own and a cut
// application's frames and selection latch were dropped.
func TestAllocBudgetSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	const budget = 34.4 // measured 34.30 alone, 34.19 after the package's other tests
	pass := func() int {
		s := experiments.NewSuite(experiments.Options{Seed: 1, Requests: 4, Workers: 1, Pairs: workload.Pairs()[:2],
			Apps: []workload.Kind{workload.DXTC, workload.Gaussian}})
		for _, fig := range []func() *metrics.Table{s.Fig9, s.Fig10, s.Fig11, s.Fig12, s.Fig13, s.Fig14} {
			fig()
		}
		return s.Runs
	}
	pass()
	var sims int
	allocs := minMallocs(3, func() { sims = pass() })
	perSim := float64(allocs) / float64(sims)
	t.Logf("%.2f allocs/simulation over %d simulations (budget %.1f)", perSim, sims, budget)
	if perSim > budget {
		t.Errorf("alloc budget exceeded: %.1f allocs/simulation > %.1f", perSim, budget)
	}
}

// TestAllocBudgetWarmConstruction: a cluster New builds after one of Fig 12's
// four-GPU supernode was closed re-initialises the devices, device
// schedulers and packers, gPool and mapper, environment, coordinator and
// node fabrics the arena's slab kept rather than building them again. What
// New and Close still allocate is the cluster's own — the Cluster, its mapper
// daemon's step, the result and its two maps — and the budget is the reading.
// It read 31 while every cluster built its control plane.
func TestAllocBudgetWarmConstruction(t *testing.T) {
	const budget = 5.0 // measured 5
	cfg := core.Config{Seed: 1, Mode: core.ModeStrings, Balance: "GWtMin", DevPolicy: "PS",
		Nodes: []core.NodeConfig{
			{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
			{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}},
		}}
	build := func() {
		c, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	build()
	got := testing.AllocsPerRun(20, build)
	t.Logf("%.0f allocations a warm New and Close (budget %.0f)", got, budget)
	if got > budget {
		t.Errorf("warm construction allocates %.0f times, budget %.0f", got, budget)
	}
}

// runBursty runs the repo benchmark's cluster_bursty shape over horizon on one
// worker and returns the requests its placed tenants submitted.
func runBursty(t *testing.T, seed int64, horizon sim.Time) int {
	t.Helper()
	spec, err := workload.ParseOpenArrivalSpec(
		"bursty:rate=0.6,horizon=1s,kind=GA,life=80s,lambda=800ms,bigevery=8,bigslots=4,burst=8,spread=2s")
	if err != nil {
		t.Fatal(err)
	}
	spec.Horizon = horizon
	node := core.NodeConfig{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}}
	sn := cluster.Supernode{Nodes: []core.NodeConfig{node, node}}
	res, err := cluster.Run(cluster.Config{
		Seed: seed, Supernodes: []cluster.Supernode{sn, sn, sn}, Policy: cluster.PolicyLeastLoaded,
		ParkCapacity: 1 << 20, Arrivals: spec, Workers: 1,
	})
	if err != nil || res.Finished != res.Requests {
		t.Fatalf("bursty cluster run: %v, finished %d of %d", err, res.Finished, res.Requests)
	}
	return res.Requests
}

// TestAllocBudgetContendedCell is the budget where the device scheduler's
// Dispatcher is the inner loop: node_mega above runs DevPolicy "none" and never
// starts one, the figure suite runs little else. One Fig 11-shaped cell (a pair
// saturating one GPU under TFS-Strings through the fixed contention window,
// where the Dispatcher turns over a few dozen entries every 5 ms epoch) and
// two Fig 12-shaped cells (the pair on the four-GPU supernode under GWtMin
// with PS and with LAS), construction included. Neither a turn nor a request
// allocates, so what a request costs here — streams, arrival closures, a
// cluster built for a dozen requests and its processes unwound on Close — is
// construction, and each budget is the reading rounded up to the next half.
// The cells read 32.38 and 34.46 while every request allocated its RCB entry,
// signal and report, and the Fig 12 cells 25.69 while the gPool Creator built
// a row list of its own and the SFT allocated each class's history. They read
// 29.67 and 25.69 while a cluster New built without an arena was cold, and
// Fig 11's 5.96 while a cut application's frames and latch were dropped.
func TestAllocBudgetContendedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	if raceEnabled() {
		// The detector's runtime allocates on its own account: up to 13 times
		// in every window of the two 13-request cells, a whole allocation a
		// request. The larger runs above and below read the same with it on.
		t.Skip("cells of a dozen requests are not measurable under -race")
	}
	for _, cell := range contendedCells() {
		cell.run(t, 1) // warm the process-wide tables outside the measurement
		// A cell is a dozen to four dozen requests, so the runtime's own
		// allocations move a single reading by up to 0.8 a request (0.1 on
		// one P): the same seed five times, and the least.
		var res cellResult
		allocs := minMallocs(5, func() { res = cell.run(t, 2) })
		perRequest := float64(allocs) / float64(res.launched)
		t.Logf("%s: %.2f allocs/request over %d requests, construction included (budget %.1f)", cell.name, perRequest, res.launched, cell.budget)
		if perRequest > cell.budget {
			t.Errorf("%s: alloc budget exceeded: %.2f allocs/request > %.1f", cell.name, perRequest, cell.budget)
		}
	}
}

// TestWarmCutCellAllocatesNoLatch: Close takes back a frontend a horizon cut
// off mid-request with its selection latch's bound Fire, so the second run of
// Fig 11's TFS-Strings cell, whose frontends are all the first run's, binds
// none anew: the profile of every allocation it makes holds no
// interpose.(*Interposer).latch.
func TestWarmCutCellAllocatesNoLatch(t *testing.T) {
	cell := contendedCells()[0]
	cell.run(t, 1)
	latches := func() (n int64) {
		runtime.GC() // the profile is as of the last collection but one
		runtime.GC()
		k, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, k+64) // room for what the make adds
		k, ok := runtime.MemProfile(recs, true)
		if !ok {
			t.Fatalf("the profile outgrew %d records", len(recs))
		}
		for _, r := range recs[:k] {
			for frames := runtime.CallersFrames(r.Stack()); ; {
				f, more := frames.Next()
				if strings.HasSuffix(f.Function, "(*Interposer).latch") {
					n += r.AllocObjects
				}
				if !more {
					break
				}
			}
		}
		return n
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := latches()
	cell.run(t, 1)
	if n := latches() - before; n > 0 {
		t.Fatalf("the warm cell allocated %d latches", n)
	}
}

// contendedCell is one of the figure-shaped cells TestAllocBudgetContendedCell,
// TestResumeBudgetPerRequest and TestQueueBudgetPerRequest run through core.
type contendedCell struct {
	name       string
	cfg        core.Config
	streams    []workload.StreamSpec
	horizon    sim.Time // 0 = run to completion
	budget     float64  // allocations a request
	dispatches float64  // kernel dispatches a launched application
}

// contendedCells returns a Fig 11-shaped cell and two Fig 12-shaped ones.
func contendedCells() []contendedCell {
	pair := workload.Pairs()[0]
	oneGPU := []core.NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}
	supernode := []core.NodeConfig{
		{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
		{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070}},
	}
	saturating := []workload.StreamSpec{
		{Kind: pair.Long, Count: 8, Lambda: sim.Second, Node: 0, Tenant: 1, Weight: 1},
		{Kind: pair.Short, Count: 40, Lambda: sim.Second / 2, Node: 0, Tenant: 2, Weight: 1},
	}
	split := []workload.StreamSpec{
		{Kind: pair.Long, Count: 5, LambdaFactor: 0.6, Node: 0, Tenant: 1, Weight: 1},
		{Kind: pair.Short, Count: 8, LambdaFactor: 0.6, Node: 1, Tenant: 2, Weight: 1},
	}
	return []contendedCell{
		{"fig11/TFS-Strings", core.Config{Nodes: oneGPU, Mode: core.ModeStrings, Balance: "GRR", DevPolicy: "TFS"}, saturating, 40 * sim.Second, 4.0, 280.0},
		{"fig12/GWtMinPS-Strings", core.Config{Nodes: supernode, Mode: core.ModeStrings, Balance: "GWtMin", DevPolicy: "PS"}, split, 0, 1.5, 4722.5},
		{"fig12/GWtMinLAS-Strings", core.Config{Nodes: supernode, Mode: core.ModeStrings, Balance: "GWtMin", DevPolicy: "LAS"}, split, 0, 1.5, 4722.5},
	}
}

// cellResult is what a cell's run reads off the cluster.
type cellResult struct {
	launched            int
	resumes, dispatched uint64
}

// run runs the cell at seed on a fresh cluster.
func (cell contendedCell) run(t *testing.T, seed int64) cellResult {
	t.Helper()
	cell.cfg.Seed = seed
	c, err := core.New(cell.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var r *core.RunResult
	if cell.horizon > 0 {
		r, err = c.RunUntil(cell.streams, cell.horizon)
	} else {
		r, err = c.Run(cell.streams)
	}
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("%s: %v %v", cell.name, err, r.Errors)
	}
	return cellResult{r.Launched, c.Resumes(), c.Dispatched()}
}

// TestAllocBudgetShardedRequest is the budget where a request's GPU is as
// often as not on another kernel: the repo benchmark's fleet_sharded shape
// (runFleet), where about 45 % of the requests are served across a mailbox. A
// cross-kernel message is a value, a frame is recycled by whichever kernel
// consumes it and a window neither sorts nor allocates, so what a request
// costs here, 3.61 allocations, is nearly all the cross-kernel connection,
// which is not reused. The budget is that rounded up to the next half. The
// shape read 11.47 while the RCB entry, its signal, the report and the relayed
// mapper messages were allocated per request, and 4.72 while a cluster New
// built without an arena was cold.
func TestAllocBudgetShardedRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	const (
		requests = 4000
		budget   = 4.0 // measured 3.61, 3.67 alone
	)
	runFleet(t, 1, 200)
	var fleet fleetResult
	allocs := minMallocs(1, func() { fleet = runFleet(t, 2, requests) })
	perRequest := float64(allocs) / requests
	t.Logf("%.2f allocs/request over %d requests, %d windows and %d cross-kernel messages, construction included (budget %.1f)",
		perRequest, requests, fleet.Windows, fleet.Messages, budget)
	if fleet.Messages < 10*requests {
		t.Fatalf("only %d cross-kernel messages over %d requests: the fleet did not remote", fleet.Messages, requests)
	}
	if perRequest > budget {
		t.Fatalf("alloc budget exceeded: %.2f allocs/request > %.1f", perRequest, budget)
	}
}

// fleetResult is what runFleet reads off the cluster.
type fleetResult struct {
	shard.Stats
	Resumes uint64
}

// runFleet runs the repo benchmark's fleet_sharded shape: four 2-GPU Strings
// nodes, one shard kernel each, GMin, every node's Gaussian stream arriving at
// 0.03 of the solo rate.
func runFleet(t *testing.T, seed int64, requests int) fleetResult {
	t.Helper()
	const nodes = 4
	cfg := core.Config{Seed: seed, Mode: core.ModeStrings, Balance: "GMin", Shards: 1}
	var streams []workload.StreamSpec
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, core.NodeConfig{Devices: []gpu.Spec{
			gpu.Quadro2000, gpu.TeslaC2050,
		}})
		streams = append(streams, workload.StreamSpec{
			Kind: workload.Gaussian, Count: requests / nodes, LambdaFactor: 0.03,
			Node: i, Tenant: int64(i + 1), Weight: 1,
		})
	}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Run(streams)
	if err != nil || len(r.Errors) > 0 || r.Finished != requests || !c.Sharded() {
		t.Fatalf("sharded fleet run: %v %v, finished %d of %d, sharded %v", err, r.Errors, r.Finished, requests, c.Sharded())
	}
	return fleetResult{c.ShardStats(), c.Resumes()}
}

// TestResumeBudgetPerRequest is the handoff budget in the same unit, and it
// is zero: every process on a request's path is a daemon — the frontend, the
// backend thread, the accept path, the arrival loop, the Affinity Mapper — so
// no activation resumes a coroutine, on the node_mega and fleet_sharded
// shapes or in the contended figure cells. The shapes read 0.00 and 2.05 a
// request while the mapper was a coroutine, and 4.88 and 26.0 while the
// frontend was one. A coroutine that comes back onto one of these paths fails
// under the shape's name.
func TestResumeBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("resume budget measurement skipped in -short mode")
	}
	check := func(name string, resumes uint64, requests int) {
		t.Logf("%s: %d resumes over %d requests", name, resumes, requests)
		if resumes != 0 {
			t.Errorf("%s: %d resumes = %.2f a request, want none", name, resumes, float64(resumes)/float64(requests))
		}
	}
	const requests = 4000
	check("node_mega", runMega(t, 1, requests).Resumes, requests)
	check("fleet_sharded", runFleet(t, 1, requests).Resumes, requests)
	for _, cell := range contendedCells() {
		res := cell.run(t, 2)
		check(cell.name, res.resumes, res.launched)
	}
}

// TestQueueBudgetPerRequest is the queue budget in the same unit: how many of
// a request's activations are stored in the kernel's heap or ring before they
// are dispatched (Kernel.Queued). On the node_mega shape that is 125.25 a
// request, 219 while every sleep, delivery wake-up and kicked deadline went
// through the heap. The count repeats exactly, and the ceiling is the reading
// rounded up to the next half, so a change that sends provably-next sleeps or
// delivery wake-ups — the backend thread's included — back through the heap,
// or leaves kicked deadlines queued, fails here before it shows as a slower
// benchmark. On the contended cells it bounds what the kernel dispatches a
// launched application (Kernel.Dispatched), by the same rule: the cells read
// 279.6 and 4 722.2, one Dispatcher turn an epoch or kick included, so a
// change that dispatches more — a turn, a wake-up, a timer — fails under the
// cell's name.
func TestQueueBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("queue budget measurement skipped in -short mode")
	}
	const (
		requests = 4000
		budget   = 125.5 // measured 125.25
	)
	res := runMega(t, 1, requests)
	perRequest := float64(res.Queued) / requests
	t.Logf("%d queued activations = %.2f a request over %d events (budget %.1f)", res.Queued, perRequest, res.Events, budget)
	if perRequest > budget {
		t.Errorf("queue budget exceeded: %.2f queued activations/request > %.1f", perRequest, budget)
	}
	for _, cell := range contendedCells() {
		res := cell.run(t, 2)
		perApp := float64(res.dispatched) / float64(res.launched)
		t.Logf("%s: %d dispatches = %.1f an application (budget %.1f)", cell.name, res.dispatched, perApp, cell.dispatches)
		if perApp > cell.dispatches {
			t.Errorf("%s: dispatch budget exceeded: %.1f dispatches/application > %.1f", cell.name, perApp, cell.dispatches)
		}
	}
}

// TestKernelSteadyStateZeroAlloc pins the stronger claim on the kernel alone:
// once the processes exist and the waiter rings are grown, driving events
// through the dispatch loop allocates nothing at all. Two persistent procs
// ping-pong through depth-one queues across RunUntil slices; the measured
// window opens only after a warm-up slice so ramp-up allocations (ring
// growth, coroutine creation) stay outside it.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	ping := sim.NewQueue[int](k)
	pong := sim.NewQueue[int](k)
	k.Go("ping", func(p *sim.Proc) {
		for r := 0; ; r++ {
			p.Sleep(1)
			ping.Put(r)
			pong.Get(p)
		}
	})
	k.Go("pong", func(p *sim.Proc) {
		for {
			v := ping.Get(p)
			pong.Put(v)
		}
	})
	k.RunUntil(10_000) // warm up: rings grown, coroutines started
	requireZeroAllocWindow(t, k, 90_000, 1)
}

// requireZeroAllocWindow runs the warm kernel k through five consecutive
// windows of the given span and fails unless each dispatched at least
// minEvents and the quietest of them allocated nothing. Of the two things a
// process-wide malloc count reads (minMallocs), the minimum excludes the
// runtime's own strays — a single window reads six of them in one -race run
// in five — and keeps the dispatch path's: an allocation there is made tens
// of thousands of times a window, in every window.
func requireZeroAllocWindow(t *testing.T, k *sim.Kernel, span sim.Time, minEvents int) {
	t.Helper()
	requireZeroAlloc(t, func() {
		if n := k.RunUntil(k.Now() + span); n < minEvents {
			t.Fatalf("only %d events dispatched in a measured window, want at least %d", n, minEvents)
		}
	})
}

// requireZeroAlloc fails unless the quietest of five runs of window allocated
// nothing.
func requireZeroAlloc(t *testing.T, window func()) {
	t.Helper()
	if allocs := minMallocs(5, window); allocs != 0 {
		t.Fatalf("steady state allocated %d times in the quietest of five windows", allocs)
	}
}

// TestBenchSetupsZeroAlloc holds the micro-benchmarks that `make bench-smoke`
// expects 0 allocs/op of to it, on the set-ups they time: a timer delivery, a
// sleep taken on the spot, an intercepted call through a backend thread and a
// wire round trip allocate nothing once warm.
func TestBenchSetupsZeroAlloc(t *testing.T) {
	t.Run("TimerDelivery", func(t *testing.T) {
		k := timerDelivery()
		defer k.Close()
		requireZeroAllocWindow(t, k, 60*2000, 2000)
	})
	t.Run("SleepNext", func(t *testing.T) {
		k := sleepNext()
		defer k.Close()
		requireZeroAllocWindow(t, k, 3*2000, 2000)
	})
	t.Run("BackendCall", func(t *testing.T) {
		c, run := backendCall(t)
		defer c.Close()
		requireZeroAlloc(t, func() { run(3 * 300) })
	})
	t.Run("CodecRoundTrip", func(t *testing.T) {
		roundTrip := codecRoundTrip(t)
		requireZeroAlloc(t, func() {
			for range 1000 {
				roundTrip()
			}
		})
	})
}

// TestTimerSteadyStateZeroAlloc is the timer-driven twin: two persistent
// procs exchange one message through AfterPut at the remote link's 60 us, so
// every delivery is a timer slot, a heap entry and a Put fired from it. Once
// the slot table, the heap and the rings are grown that path allocates
// nothing either.
func TestTimerSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	ping := sim.NewQueue[any](k)
	pong := sim.NewQueue[any](k)
	msg := any(new(int))
	k.Go("ping", func(p *sim.Proc) {
		for {
			k.AfterPut(60, ping, msg)
			pong.Get(p)
		}
	})
	k.Go("pong", func(p *sim.Proc) {
		for {
			k.AfterPut(60, pong, ping.Get(p))
		}
	})
	k.RunUntil(10_000) // warm up: slots, heap and rings grown, coroutines started
	requireZeroAllocWindow(t, k, 100_000, 3000)
}
