package repro

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
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
// backend thread and some twenty marshalled calls each. On the repo benchmark's
// node_mega shape (one 2-GPU Strings node, GMin, a sparse Gaussian stream) a
// request costs 3.13 allocations once the pools are warm, the same figure in
// every run: 10.15 while every frontend was a coroutine with its own App,
// interposer, process and two closures, 23.13 while every request built its
// backend session, connection and packer lane afresh, 23.17 while the backend thread was a coroutine and
// an accept loop queued its connection, 63 while every process built its own
// coroutine, 39
// while every connection warmed a frame pool of its own, 35 while a connection
// was five objects, every application got a multi-thread session and the last
// call's frames were dropped, and 26 while a signal's first waiter grew a ring
// of eight. The ceiling is the reading rounded up to the next half, so one more
// allocation a request fails it: nothing static checks allocation, this test
// and its three siblings are the only gate the request path has (DESIGN.md
// §13).
func TestAllocBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	const (
		requests = 4000
		budget   = 3.5 // measured 3.13
	)
	runMega(t, 1, 200)
	allocs := minMallocs(1, func() { runMega(t, 2, requests) })
	perRequest := float64(allocs) / requests
	t.Logf("%.2f allocs/request over %d requests, construction included (budget %.1f)", perRequest, requests, budget)
	if perRequest > budget {
		t.Fatalf("alloc budget exceeded: %.2f allocs/request > %.1f", perRequest, budget)
	}
}

// TestAllocBudgetContendedCell is the budget where the device scheduler's
// Dispatcher is the inner loop: node_mega above runs DevPolicy "none" and never
// starts one, the figure suite runs little else. One Fig 11-shaped cell (a pair
// saturating one GPU under TFS-Strings through the fixed contention window,
// where the Dispatcher turns over a few dozen entries every 5 ms epoch) and
// two Fig 12-shaped cells (the pair on the four-GPU supernode under GWtMin
// with PS and with LAS), construction included. A turn allocates nothing, so
// a request costs 32.69 and 35.62 allocations here — streams, arrival
// closures, a cluster built for a dozen requests and its processes unwound on
// Close — and each budget is its reading rounded up to the next half (48.75
// and 44.15 while every frontend was a coroutine, 50.69 and 55.38 before
// sessions, connections and lanes were reused, 64.06 and 66.31 while
// each backend thread built a coroutine, 70.42 and 73.38 before the first
// waiter of a signal, event or mutex lived inline). With
// policies that rebuilt maps and slices and called sort.Slice every turn the
// same cells cost 2 668, 12 857 and 8 587 allocations a request: 41, 188 and
// 125 times these budgets.
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
	cells := []struct {
		name    string
		cfg     core.Config
		streams []workload.StreamSpec
		horizon sim.Time // 0 = run to completion
		budget  float64
	}{
		{"fig11/TFS-Strings", core.Config{Nodes: oneGPU, Mode: core.ModeStrings, Balance: "GRR", DevPolicy: "TFS"}, saturating, 40 * sim.Second, 33.0},
		{"fig12/GWtMinPS-Strings", core.Config{Nodes: supernode, Mode: core.ModeStrings, Balance: "GWtMin", DevPolicy: "PS"}, split, 0, 36.0},
		{"fig12/GWtMinLAS-Strings", core.Config{Nodes: supernode, Mode: core.ModeStrings, Balance: "GWtMin", DevPolicy: "LAS"}, split, 0, 36.0},
	}
	for _, cell := range cells {
		run := func(seed int64) int {
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
			return r.Launched
		}
		run(1) // warm the process-wide tables outside the measurement
		// A cell is a dozen to four dozen requests, so the runtime's own
		// allocations move a single reading by up to 0.8 a request (0.1 on
		// one P): the same seed five times, and the least.
		var requests int
		allocs := minMallocs(5, func() { requests = run(2) })
		perRequest := float64(allocs) / float64(requests)
		t.Logf("%s: %.2f allocs/request over %d requests, construction included (budget %.1f)", cell.name, perRequest, requests, cell.budget)
		if perRequest > cell.budget {
			t.Errorf("%s: alloc budget exceeded: %.2f allocs/request > %.1f", cell.name, perRequest, cell.budget)
		}
	}
}

// TestAllocBudgetShardedRequest is the budget where a request's GPU is as
// often as not on another kernel: the repo benchmark's fleet_sharded shape
// (runFleet), where about 45 % of the requests are served across a mailbox. A
// cross-kernel message is a value, a frame is recycled by whichever kernel
// consumes it and a window neither sorts nor allocates, so such a request
// costs 11.47 allocations here (10.40 over the benchmark's longer pass), eight
// more than node_mega's: a cross-kernel connection is not reused. The budget
// is that rounded up to the next half (18.95 while every frontend was a
// coroutine, 30.16 before sessions, same-kernel connections and lanes were
// reused, 30.75 while the backend thread was a coroutine, 33.76 before a first
// waiter lived inline). While every message was a closure, cross-kernel conns
// dropped their frames and each window sorted its lists, the same run cost 118.
func TestAllocBudgetShardedRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measurement skipped in -short mode")
	}
	const (
		requests = 4000
		budget   = 11.5 // measured 11.47
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

// TestResumeBudgetPerRequest is the handoff budget in the same unit. A request
// is one frontend/backend-thread pair exchanging some three dozen messages,
// and every process on its path is a daemon — the frontend, the backend
// thread, the accept path, the arrival loop — so a message costs no resume.
// The one resume left on the node_mega shape is the Affinity Mapper's start;
// on the fleet_sharded shape the mapper's coroutine, woken by selections from
// other nodes, is resumed 2.05 times a request. The shapes read 4.88 and 26.0
// while the frontend was a coroutine, 36.98 on node_mega while every delivery
// to the backend thread resumed its coroutine, and 70.41 with a driver-only
// dispatch loop. The counts repeat exactly; each budget is its reading
// rounded up to the next half.
func TestResumeBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("resume budget measurement skipped in -short mode")
	}
	const (
		requests = 4000
		budget   = 0.5 // measured 0.00
		fleetCap = 2.5 // measured 2.05
	)
	res := runMega(t, 1, requests)
	perRequest := float64(res.Resumes) / requests
	t.Logf("node_mega: %d resumes = %.2f a request over %d events (budget %.1f)", res.Resumes, perRequest, res.Events, budget)
	if perRequest > budget {
		t.Fatalf("resume budget exceeded: %.2f resumes/request > %.1f", perRequest, budget)
	}
	fleet := runFleet(t, 1, requests)
	perRequest = float64(fleet.Resumes) / requests
	t.Logf("fleet_sharded: %d resumes = %.2f a request (budget %.1f)", fleet.Resumes, perRequest, fleetCap)
	if perRequest > fleetCap {
		t.Fatalf("sharded resume budget exceeded: %.2f resumes/request > %.1f", perRequest, fleetCap)
	}
}

// TestQueueBudgetPerRequest is the queue budget in the same unit: how many of
// a request's activations are stored in the kernel's heap or ring before they
// are dispatched (Kernel.Queued). On the node_mega shape a request is 202
// dispatches; it queued 219 activations (the difference is stale timeouts)
// while every sleep pushed its own wake-up, 183.27 once a sleep whose wake-up
// is provably next took it on the spot, 182.27 once no accept loop woke up for
// the connection, 141.34 once a link delivery whose receiver is provably next
// ran the receiver in place of its wake-up, and queues 125.25 now that a kick
// takes the GPU driver's deadline out of the queue instead of leaving it to go
// by stale (16 a request). The count repeats exactly, and the ceiling is the
// reading rounded up to the next half, so a change that sends those sleeps or
// wake-ups — the backend thread's included — back through the heap, or leaves
// kicked deadlines queued, fails here before it shows as a slower benchmark.
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
		t.Fatalf("queue budget exceeded: %.2f queued activations/request > %.1f", perRequest, budget)
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
