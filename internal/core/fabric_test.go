package core

import (
	"reflect"
	"testing"

	"repro/internal/balancer"
	"repro/internal/faults"
	"repro/internal/interpose"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// oneKernelSupernode builds the supernode with both nodes on one kernel —
// the partition in which a cross-node report used to be free.
func oneKernelSupernode(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Nodes, cfg.Mode, cfg.Balance, cfg.Shards = supernode(), ModeStrings, "GMin", 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sharded() {
		t.Fatal("Shards=0 sharded")
	}
	return c
}

// TestCrossNodeReportsPayTheLink pins the control-plane model on one
// kernel: node 0 (the mapper's) reports instantly, node 1 pays
// RemoteLink.Latency each way. The kernel is stepped from outside, so every
// bound is exact to the microsecond.
func TestCrossNodeReportsPayTheLink(t *testing.T) {
	c := oneKernelSupernode(t, Config{Seed: 1})
	lat, local := c.cfg.RemoteLink.Latency, rpcproto.SharedMemLink.Latency
	const reportAt = 10 * sim.Millisecond
	var gids [2]balancer.GID
	var selected [2]sim.Time
	for node := range gids {
		node, f := node, c.nodes[node]
		c.K.Go("reporter", func(p *sim.Proc) {
			// The interposer's round trip: the hop each way is the caller's.
			hop, done := f.SelectHop(), c.K.NewEvent()
			p.Sleep(hop)
			f.SelectGPU(balancer.Request{AppID: 900 + node, Kind: "GA", Node: node, Tenant: 1}, &gids[node], done)
			p.Wait(done)
			p.Sleep(hop)
			selected[node] = p.Now()
			p.Sleep(reportAt - p.Now())
			f.ReportFeedback(gids[node], "GA", &rpcproto.Feedback{
				AppID: int64(900 + node), Kind: "GA", GID: int32(gids[node]), ExecTime: sim.Second, GPUTime: sim.Second,
			})
		})
	}
	feedbacksAt := func(at sim.Time) int {
		c.K.RunUntil(at)
		_, n := c.mapper.Stats()
		return n
	}
	for _, step := range []struct {
		at   sim.Time
		want int
		what string
	}{
		{reportAt + mapperServiceTime - 1, 0, "before node 0's report is served"},
		{reportAt + mapperServiceTime, 1, "node 0's report, served the instant it was made"},
		{reportAt + lat + mapperServiceTime - 1, 1, "node 1's report still on the link"},
		{reportAt + lat + mapperServiceTime, 2, "node 1's report, one link latency later"},
	} {
		if got := feedbacksAt(step.at); got != step.want {
			t.Fatalf("at %v the mapper had folded %d reports, want %d (%s)", step.at, got, step.want, step.what)
		}
	}
	// Both selections left at 0: node 0's waits out the local link each way,
	// node 1's the remote one.
	if want := 2*local + mapperServiceTime; selected[0] != want {
		t.Fatalf("node 0 selection returned at %v, want %v", selected[0], want)
	}
	if want := 2*lat + mapperServiceTime; selected[1] != want {
		t.Fatalf("node 1 selection returned at %v, want %v", selected[1], want)
	}

	// Failure reports are round trips; recovery reports one-way.
	const failAt = 20 * sim.Millisecond
	var took [2]sim.Time
	var health [2]balancer.Health
	for node := range gids {
		node, f := node, c.nodes[node]
		c.K.Go("detector", func(p *sim.Proc) {
			p.Sleep(failAt - p.Now())
			verdict := c.K.NewEvent()
			f.ReportFailure(balancer.GID(2+node), &health[node], verdict)
			p.Wait(verdict)
			took[node] = p.Now() - failAt
			p.Sleep(sim.Millisecond)
			f.ReportRecovered(balancer.GID(2 + node))
		})
	}
	c.K.RunUntil(failAt + sim.Millisecond - 1)
	if health[0] != balancer.Suspect || health[1] != balancer.Suspect {
		t.Fatalf("failure verdicts %v, want Suspect twice", health)
	}
	// Node 0's report is served first (it arrives first), node 1's on an
	// idle mapper a link latency later.
	if took[0] != mapperServiceTime || took[1] != 2*lat+mapperServiceTime {
		t.Fatalf("failure round trips took %v, want [%v %v]", took, mapperServiceTime, 2*lat+mapperServiceTime)
	}
	dst := c.mapper.DST()
	recoveredAt := failAt + sim.Millisecond // node 0's verdict + 1 ms
	c.K.RunUntil(recoveredAt + 2*mapperServiceTime)
	if dst.Health(2) != balancer.Healthy || dst.Health(3) != balancer.Suspect {
		t.Fatalf("after node 0's recovery report: gid 2 %v, gid 3 %v", dst.Health(2), dst.Health(3))
	}
	c.K.RunUntil(recoveredAt + 3*lat + 2*mapperServiceTime - 1)
	if dst.Health(3) != balancer.Suspect {
		t.Fatal("node 1's recovery report reached the mapper early")
	}
	c.K.RunUntil(recoveredAt + 3*lat + 2*mapperServiceTime)
	if dst.Health(3) != balancer.Healthy {
		t.Fatal("node 1's recovery report did not arrive one link latency after it was made")
	}
}

// TestMapperServesOneInstantInNodeOrder: selections that reach the mapper's
// queue at one instant are answered in node order, not in the order the
// kernel ran their senders. Node 1's arrives first — its link delivery fires
// before the process that posts node 0's wakes — yet node 0's is served first.
func TestMapperServesOneInstantInNodeOrder(t *testing.T) {
	c := oneKernelSupernode(t, Config{Seed: 1})
	lat := c.cfg.RemoteLink.Latency
	const arriveAt = 10 * sim.Millisecond
	var gids [2]balancer.GID
	var answered [2]sim.Time
	var done [2]*sim.Event
	for node := range done {
		done[node] = c.K.NewEvent()
		c.K.Go("answer", func(p *sim.Proc) {
			p.Wait(done[node])
			answered[node] = p.Now()
		})
	}
	c.K.Go("poster", func(p *sim.Proc) {
		p.Sleep(arriveAt - lat - p.Now())
		c.nodes[1].SelectGPU(balancer.Request{AppID: 901, Kind: "GA", Node: 1, Tenant: 1}, &gids[1], done[1])
		p.Sleep(lat)
		c.nodes[0].SelectGPU(balancer.Request{AppID: 900, Kind: "GA", Node: 0, Tenant: 1}, &gids[0], done[0])
	})
	c.K.RunUntil(arriveAt + sim.Millisecond)
	if c.mapQ.Len() != 0 || len(c.mapPend) != 0 {
		t.Fatalf("mapper left %d queued and %d pending messages", c.mapQ.Len(), len(c.mapPend))
	}
	want := [2]sim.Time{arriveAt + mapperServiceTime, arriveAt + 2*mapperServiceTime + lat}
	if answered != want {
		t.Fatalf("selections answered at %v, want %v: node 0's first, node 1's one service time and the link later", answered, want)
	}
}

// TestStallRecoveryFromRemoteFrontend drives the failure detector end to
// end from node 1: a stall longer than the call timeout makes the frontends
// time out, report the failure across the link, retransmit, and report the
// recovery once the stalled backend answers. The fault plan keeps both nodes
// on one kernel at any Shards; the last case drops it, so the same recovering
// frontends reach their backends over cross-kernel conns. In every case
// no-recycle is the connection's property: no frame of a retransmitting
// connection reaches a kernel's pool — which on one kernel is shared with
// every other application, and across kernels has a side the frontend cannot
// reach — so the pools end as they began.
func TestStallRecoveryFromRemoteFrontend(t *testing.T) {
	streams := []workload.StreamSpec{
		{Kind: workload.Gaussian, Count: 3, Lambda: 100 * sim.Millisecond, Node: 1, Tenant: 1, Weight: 1},
	}
	var plan faults.Plan
	for gid := 0; gid < 4; gid++ {
		plan.Faults = append(plan.Faults, faults.Fault{
			At: 500 * sim.Millisecond, Kind: faults.StallGPU, GID: gid, Dur: 1500 * sim.Millisecond,
		})
	}
	for _, tc := range []struct {
		name    string
		shards  int
		plan    faults.Plan
		sharded bool
	}{
		{"stall/shards=0", 0, plan, false},
		{"stall/shards=4", 4, plan, false},
		{"no-faults/shards=4", 4, faults.Plan{}, true},
	} {
		c, err := New(Config{
			Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", Shards: tc.shards,
			Faults: tc.plan, Recovery: interpose.Recovery{CallTimeout: sim.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.Sharded() != tc.sharded {
			t.Fatalf("%s: Sharded() = %v", tc.name, c.Sharded())
		}
		r, err := c.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Errors) > 0 || r.Lost != 0 || r.Finished != 3 {
			t.Fatalf("%s: finished %d lost %d errors %v", tc.name, r.Finished, r.Lost, r.Errors)
		}
		if stalled := len(tc.plan.Faults) > 0; (r.Recovered > 0) != stalled {
			t.Fatalf("%s: %d frontends timed out and recovered: want some exactly when the GPUs stall", tc.name, r.Recovered)
		}
		for gid := 0; gid < 4; gid++ {
			if h := c.mapper.DST().Health(balancer.GID(gid)); h != balancer.Healthy {
				t.Fatalf("%s: gid %d ended %v: the recovery report never reached the mapper", tc.name, gid, h)
			}
		}
		for _, e := range c.envs {
			if !reflect.DeepEqual(&e.pool, &rpcproto.Pool{}) {
				t.Fatalf("%s: kernel %d's frame pool was used by a connection under recovery", tc.name, e.idx)
			}
		}
	}
}
