package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shardedScenario is a supernode run with traffic on both nodes so the
// balancer routes frontends to cross-shard backends: the full mailbox
// machinery (select round trips, cross-kernel conns, feedback relays) is on
// the hot path.
func shardedScenario() []workload.StreamSpec {
	return []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 6, Lambda: 40 * sim.Millisecond, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.BlackScholes, Count: 6, Lambda: 30 * sim.Millisecond, Node: 1, Tenant: 2, Weight: 2},
		{Kind: workload.Gaussian, Count: 4, Lambda: 25 * sim.Millisecond, Node: 1, Tenant: 3, Weight: 1,
			Style: workload.StyleMultiThread},
	}
}

// runShardedOnce runs the scenario at a Shards setting and returns the
// results, the concatenated JSONL trace bytes and the cluster, closed when
// the test ends.
func runShardedOnce(t *testing.T, mode Mode, shards int) (*RunResult, []byte, *Cluster) {
	t.Helper()
	cfg := Config{
		Seed: 11, Nodes: supernode(), Mode: mode,
		Balance: "GMin", DevPolicy: "TFS",
		Recorder: trace.New(), Shards: shards,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(shards=%d): %v", shards, err)
	}
	t.Cleanup(c.Close)
	r, err := c.Run(shardedScenario())
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	if len(r.Errors) > 0 {
		t.Fatalf("shards=%d: application errors: %v", shards, r.Errors)
	}
	var jsonl []byte
	for _, rec := range c.Recorders() {
		jsonl = rec.Snapshot().AppendJSONL(jsonl)
	}
	return r, jsonl, c
}

func TestShardInvarianceStrings(t *testing.T) {
	ref, refJSONL, refC := runShardedOnce(t, ModeStrings, 1)
	if !refC.Sharded() {
		t.Fatal("supernode Strings run did not shard")
	}
	if ref.Finished != ref.Launched || ref.Launched != 16 {
		t.Fatalf("reference run: finished %d of %d (want 16)", ref.Finished, ref.Launched)
	}
	refStats := refC.ShardStats()
	if refStats.Messages == 0 {
		t.Fatalf("no cross-shard messages — scenario does not exercise the mailboxes: %+v", refStats)
	}
	// Shards is on/off: 4 is the run 1 is, application ids, trace bytes and
	// window counters included, and New starts no goroutine for it.
	got, gotJSONL, c := runShardedOnce(t, ModeStrings, 4)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("shards=4: results diverged from shards=1")
	}
	if string(gotJSONL) != string(refJSONL) {
		t.Fatal("shards=4: JSONL trace bytes diverged from shards=1")
	}
	if s := c.ShardStats(); !reflect.DeepEqual(s, refStats) {
		t.Fatalf("shards=4: stats diverged: %+v vs %+v", s, refStats)
	}
	started := func(shards int) int {
		before := runtime.NumGoroutine()
		c, err := New(Config{Seed: 11, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return runtime.NumGoroutine() - before
	}
	if one, four := started(1), started(4); four > one {
		t.Fatalf("New started %d goroutines at Shards=4, %d at Shards=1", four, one)
	}
}

// TestShardedFleetsOnWorkers runs sharded fleets, every second one cut off at
// a horizon, four at a time on the shared arena, so slabs change goroutines
// between clusters while a session on one slab frees its frames into the pool
// of another; each run must repeat its sequential one.
func TestShardedFleetsOnWorkers(t *testing.T) {
	run := func(i int) string {
		c, err := New(Config{Seed: int64(i / 2), Nodes: supernode(), Mode: ModeStrings,
			Balance: "GMin", DevPolicy: "TFS", Shards: 1})
		if err != nil {
			t.Error(err)
			return ""
		}
		defer c.Close()
		horizon := 1000 * sim.Second
		if i%2 == 1 {
			horizon = 5 * sim.Second
		}
		r, err := c.RunUntil(shardedScenario(), horizon)
		if err != nil || !c.Sharded() {
			t.Errorf("run %d: %v, sharded %v", i, err, c.Sharded())
		}
		return fmt.Sprintf("%d %d %+v", r.Launched, r.EndTime, r.Requests)
	}
	want := parallel.Map(12, 1, run)
	for i, got := range parallel.Map(12, 4, run) {
		if got != want[i] {
			t.Fatalf("run %d on four workers:\n%s\nalone:\n%s", i, got, want[i])
		}
	}
}

func TestShardInvarianceRain(t *testing.T) {
	ref, refJSONL, _ := runShardedOnce(t, ModeRain, 1)
	got, gotJSONL, _ := runShardedOnce(t, ModeRain, 1)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("Rain results diverged on a rerun")
	}
	if string(gotJSONL) != string(refJSONL) {
		t.Fatal("Rain JSONL trace bytes diverged on a rerun")
	}
}

func TestShardInvarianceCUDA(t *testing.T) {
	ref, _, refC := runShardedOnce(t, ModeCUDA, 1)
	if !refC.Sharded() {
		t.Fatal("CUDA supernode run did not shard")
	}
	got, _, _ := runShardedOnce(t, ModeCUDA, 1)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("CUDA results diverged on a rerun")
	}
}

func TestShardCollapseRules(t *testing.T) {
	base := Config{Seed: 1, Mode: ModeStrings, Shards: 4}

	single := base
	single.Nodes = twoGPUNode()
	c, err := New(single)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sharded() {
		t.Fatal("single-node cluster must run on one kernel")
	}

	mig := base
	mig.Nodes = []NodeConfig{
		{Devices: []gpu.Spec{gpu.TeslaC2050.WithMIG(), gpu.TeslaC2050.WithMIG()}},
		{Devices: []gpu.Spec{gpu.TeslaC2050.WithMIG(), gpu.TeslaC2050.WithMIG()}},
	}
	c, err = New(mig)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sharded() {
		t.Fatal("partitionable fleet must run on one kernel")
	}

	off := base
	off.Nodes = supernode()
	off.Shards = 0
	c, err = New(off)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sharded() {
		t.Fatal("Shards=0 must run every node on one kernel")
	}

	on := base
	on.Nodes = supernode()
	c, err = New(on)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Sharded() {
		t.Fatal("supernode with Shards=4 must shard")
	}
	if got := c.ShardStats().Lookahead; got != c.cfg.RemoteLink.Latency {
		t.Fatalf("lookahead %v, want the remote-link latency %v", got, c.cfg.RemoteLink.Latency)
	}
}

func TestShardedRunUntilAccounting(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 400, Lambda: 3 * sim.Millisecond, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: 400, Lambda: 3 * sim.Millisecond, Node: 1, Tenant: 2, Weight: 1},
	}
	run := func() *RunResult {
		cfg := Config{Seed: 5, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: 1}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r, err := c.RunUntil(streams, 2*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run()
	if len(ref.TenantService) != 2 {
		t.Fatalf("tenant service for %d tenants, want 2", len(ref.TenantService))
	}
	for id, svc := range ref.TenantService {
		if svc <= 0 {
			t.Fatalf("tenant %d received no service by the horizon", id)
		}
	}
	if got := run(); !reflect.DeepEqual(got, ref) {
		t.Fatal("RunUntil results diverged on a rerun")
	}
}

// denseScenario keeps both nodes of the supernode saturated: a request every
// 3 ms at each node, so selections, releases and cross-node connections from
// the two nodes interleave at the mapper throughout the run.
func denseScenario() []workload.StreamSpec {
	return []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 400, Lambda: 3 * sim.Millisecond, Node: 0, Tenant: 1, Weight: 1},
		{Kind: workload.Gaussian, Count: 400, Lambda: 3 * sim.Millisecond, Node: 1, Tenant: 2, Weight: 1},
	}
}

// pairScenario is Figure 10's shape: workload pair A split over the
// supernode, the long stream arriving at node 0 and the short one at node 1,
// each at 0.6 of its solo rate.
func pairScenario() []workload.StreamSpec {
	p := workload.Pairs()[0]
	return []workload.StreamSpec{
		{Kind: p.Long, Count: 3, LambdaFactor: 0.6, Node: 0, Tenant: 1, Weight: 1},
		{Kind: p.Short, Count: 5, LambdaFactor: 0.6, Node: 1, Tenant: 2, Weight: 1},
	}
}

// partitionView is what a run must reproduce under every node→kernel
// partition: the counters, the end time and the request log with the
// per-kernel application numbering scrubbed.
type partitionView struct {
	Launched, Finished, Lost, Errors int
	EndTime                          sim.Time
	Requests                         []RequestEvent
}

func partitionRun(t *testing.T, cfg Config, streams []workload.StreamSpec) partitionView {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(shards=%d): %v", cfg.Shards, err)
	}
	defer c.Close()
	r, err := c.Run(streams)
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", cfg.Shards, err)
	}
	if r.Finished+r.Lost+len(r.Errors) != r.Launched {
		t.Fatalf("shards=%d: finished %d + lost %d + errors %d != launched %d",
			cfg.Shards, r.Finished, r.Lost, len(r.Errors), r.Launched)
	}
	reqs := append([]RequestEvent(nil), r.Requests...)
	for i := range reqs {
		reqs[i].Err = strings.Replace(reqs[i].Err, fmt.Sprintf("app %d", reqs[i].AppID), "app N", 1)
		reqs[i].AppID = 0
	}
	// A stream submits at most one request per instant, so (time, node,
	// tenant) orders the log without the application id.
	sort.Slice(reqs, func(i, j int) bool {
		a, b := reqs[i], reqs[j]
		if a.SubmittedUS != b.SubmittedUS {
			return a.SubmittedUS < b.SubmittedUS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Tenant < b.Tenant
	})
	return partitionView{r.Launched, r.Finished, r.Lost, len(r.Errors), r.EndTime, reqs}
}

// TestShardPartitionInvariance holds the one control-plane model to its
// claim: one kernel for all nodes (Shards 0) and one kernel per node
// (Shards 1 and 4) serve every request at the same instants on the same
// devices.
func TestShardPartitionInvariance(t *testing.T) {
	type scenario struct {
		name    string
		streams []workload.StreamSpec
		cfg     Config
	}
	scenarios := []scenario{
		{"mixed/Strings", shardedScenario(), Config{Seed: 11, Mode: ModeStrings, Balance: "GMin", DevPolicy: "TFS"}},
		{"mixed/Rain", shardedScenario(), Config{Seed: 11, Mode: ModeRain, Balance: "GMin", DevPolicy: "TFS"}},
		{"pair/Strings", pairScenario(), Config{Seed: 5, Mode: ModeStrings, Balance: "GMin"}},
	}
	for _, mode := range []Mode{ModeStrings, ModeRain} {
		for _, bal := range []string{"GMin", "GRR", "MBF"} {
			if testing.Short() {
				// make race's -short pass keeps the mixed scenarios.
				continue
			}
			scenarios = append(scenarios, scenario{
				fmt.Sprintf("dense/%s/%s", mode, bal), denseScenario(),
				Config{Seed: 5, Mode: mode, Balance: bal},
			})
		}
	}
	for _, sc := range scenarios {
		sc.cfg.Nodes = supernode()
		ref := partitionRun(t, sc.cfg, sc.streams)
		if ref.Launched == 0 || ref.Finished == 0 {
			t.Fatalf("%s: reference run served nothing: %+v", sc.name, ref)
		}
		for _, shards := range []int{1, 4} {
			cfg := sc.cfg
			cfg.Shards = shards
			got := partitionRun(t, cfg, sc.streams)
			if reflect.DeepEqual(got, ref) {
				continue
			}
			for i := range ref.Requests {
				if i >= len(got.Requests) || got.Requests[i] != ref.Requests[i] {
					t.Fatalf("%s: shards=%d diverged from shards=0 at request %d:\n got %+v\nwant %+v",
						sc.name, shards, i, got.Requests[i], ref.Requests[i])
				}
			}
			got.Requests, ref.Requests = nil, nil
			t.Fatalf("%s: shards=%d diverged from shards=0: %+v vs %+v", sc.name, shards, got, ref)
		}
	}
}

// TestRepeatedRunCountsOnce runs two batches through one cluster: the
// cumulative totals must not depend on the partition (a sharded cluster used
// to merge the first batch a second time).
func TestRepeatedRunCountsOnce(t *testing.T) {
	for _, shards := range []int{0, 2} {
		c, err := New(Config{Seed: 1, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		streams := append(gaStream(3), workload.StreamSpec{
			Kind: workload.Gaussian, Count: 2, Lambda: sim.Second, Node: 1, Tenant: 2, Weight: 1,
		})
		for batch := 1; batch <= 2; batch++ {
			r, err := c.Run(streams)
			if err != nil {
				t.Fatal(err)
			}
			want := 5 * batch
			if r.Launched != want || r.Finished != want || len(r.Requests) != want ||
				len(r.Completions(workload.Gaussian)) != want {
				t.Fatalf("shards=%d batch %d: launched %d finished %d requests %d completions %d, want %d each",
					shards, batch, r.Launched, r.Finished, len(r.Requests),
					len(r.Completions(workload.Gaussian)), want)
			}
		}
		c.Close()
	}
}

// TestNewErrorsLeakNoGoroutines: New validates the configuration before it
// spawns a process, since a caller handed (nil, err) has nothing to Close.
func TestNewErrorsLeakNoGoroutines(t *testing.T) {
	bad := []Config{
		{Balance: "nope"},
		{DevPolicy: "nope"},
		{Mode: ModeRain, DevPolicy: "PS"},
		{Nodes: append(supernode(), NodeConfig{})},
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		for _, cfg := range bad {
			if cfg.Nodes == nil {
				cfg.Nodes = supernode()
			}
			if cfg.Mode == ModeCUDA {
				cfg.Mode = ModeStrings
			}
			cfg.Shards = 4
			if c, err := New(cfg); err == nil {
				c.Close()
				t.Fatalf("New(%+v) succeeded", cfg)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("failed New calls left %d goroutines behind", after-before)
	}
}

// TestKernelCountersSumOverKernels: Dispatched and FastForwards report the
// whole cluster, whichever kernels the nodes run on.
func TestKernelCountersSumOverKernels(t *testing.T) {
	for _, shards := range []int{0, 2} {
		_, _, c := runShardedOnce(t, ModeStrings, shards)
		var events, jumps uint64
		var skipped sim.Time
		for _, e := range c.envs {
			events += e.k.Dispatched()
			j, s := e.k.FastForwards()
			jumps, skipped = jumps+j, skipped+s
		}
		gotJumps, gotSkipped := c.FastForwards()
		if c.Dispatched() != events || gotJumps != jumps || gotSkipped != skipped {
			t.Fatalf("shards=%d: counters (%d, %d, %v), kernels sum to (%d, %d, %v)",
				shards, c.Dispatched(), gotJumps, gotSkipped, events, jumps, skipped)
		}
		if events <= c.K.Dispatched() == c.Sharded() {
			t.Fatalf("shards=%d: %d events cluster-wide, %d on the mapper's kernel", shards, events, c.K.Dispatched())
		}
	}
}
