// Package repro's top-level benchmarks are the micro-benchmarks `make
// bench-smoke` and `make bench` run — kernel dispatch, queue handoff, timer
// delivery, process spawn, the wire codec — plus one small end-to-end run,
// plain and traced. The paper's tables and figures are regenerated by
// `strings-bench -exp …` and timed by the repo benchmark's policy_grid
// workload (experiments.fig*_s).
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkSimulatorThroughput measures raw simulation speed: virtual
// seconds simulated per wall second for a busy two-GPU node.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := core.New(core.Config{
			Seed: int64(i + 1),
			Nodes: []core.NodeConfig{{Devices: []gpu.Spec{
				gpu.Quadro2000, gpu.TeslaC2050,
			}}},
			Mode:    core.ModeStrings,
			Balance: "GMin",
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := c.Run([]workload.StreamSpec{{
			Kind: workload.MonteCarlo, Count: 6, LambdaFactor: 0.5,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		c.Close()
		if err != nil || len(r.Errors) > 0 {
			b.Fatalf("%v %v", err, r.Errors)
		}
		b.ReportMetric(r.EndTime.Seconds(), "virtual_s/op")
	}
}

// BenchmarkTracedRun measures the same throughput scenario with the span
// recorder enabled — the cost of full-path observability. Compare its
// ns/op and allocs/op against BenchmarkSimulatorThroughput: the delta is
// the tracing overhead, which the disabled path must not pay (see
// BenchmarkRecorderDisabled in internal/trace for the 0-alloc proof).
func BenchmarkTracedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := trace.New()
		c, err := core.New(core.Config{
			Seed: int64(i + 1),
			Nodes: []core.NodeConfig{{Devices: []gpu.Spec{
				gpu.Quadro2000, gpu.TeslaC2050,
			}}},
			Mode:     core.ModeStrings,
			Balance:  "GMin",
			Recorder: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := c.Run([]workload.StreamSpec{{
			Kind: workload.MonteCarlo, Count: 6, LambdaFactor: 0.5,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		c.Close()
		if err != nil || len(r.Errors) > 0 {
			b.Fatalf("%v %v", err, r.Errors)
		}
		if i == 0 {
			b.ReportMetric(float64(len(rec.Snapshot().Spans)), "spans/op")
		}
	}
}

// BenchmarkKernelDispatch measures raw event-loop overhead: 64 processes on
// staggered sleep cadences, so every dispatch goes through the future heap
// and a real park/resume handoff. Reports ns/event.
func BenchmarkKernelDispatch(b *testing.B) {
	const procs = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		for p := 0; p < procs; p++ {
			period := sim.Time(1 + p%7)
			k.Go("p", func(pr *sim.Proc) {
				for t := 0; t < 256; t++ {
					pr.Sleep(period)
				}
			})
		}
		k.Run()
		k.Close()
		if i == 0 {
			b.ReportMetric(float64(k.Dispatched()), "events/op")
		}
	}
}

// BenchmarkQueuePingPong measures the baton-passing handoff through
// sim.Queue between two coroutines: a producer and a consumer alternating
// through a pair of depth-one queues. Each handoff is one resume — two
// switches, in from the dispatch loop and back out — so a round trip costs
// two; no benchmarked workload makes one, its request path being daemons.
func BenchmarkQueuePingPong(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		ping := sim.NewQueue[int](k)
		pong := sim.NewQueue[int](k)
		const rounds = 4096
		k.Go("ping", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				ping.Put(r)
				pong.Get(p)
			}
		})
		k.Go("pong", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				v := ping.Get(p)
				pong.Put(v)
			}
		})
		k.Run()
		k.Close()
		if i == 0 {
			b.ReportMetric(float64(k.Resumes()), "resumes/op")
		}
	}
}

// BenchmarkTimerDelivery measures one AfterPut -> Get round trip at the
// remote link's 60 us: the timer's heap entry fired inline, and the receiver
// run in place of its wake-up. Steady state allocates nothing
// (TestBenchSetupsZeroAlloc).
func BenchmarkTimerDelivery(b *testing.B) {
	k := timerDelivery()
	defer k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(k.Now() + 60*sim.Time(b.N))
	b.StopTimer() // Close unwinds the parked process: not what is timed
}

// timerDelivery is BenchmarkTimerDelivery's set-up, warm: a process arming a
// 60 us AfterPut into its own queue and taking the message, in a loop.
func timerDelivery() *sim.Kernel {
	k := sim.NewKernel(1)
	q := sim.NewQueue[any](k)
	msg := any(new(int))
	k.Go("rx", func(p *sim.Proc) {
		for {
			k.AfterPut(60, q, msg)
			q.Get(p)
		}
	})
	k.RunUntil(60 * 64) // warm up: slot table, heap and rings grown, coroutine started
	return k
}

// BenchmarkSleepNext measures a sleep whose wake-up is the next activation:
// one process sleeping in a loop with nothing else pending, so every Sleep
// takes its wake-up on the spot and nothing is queued. Steady state allocates
// nothing (TestBenchSetupsZeroAlloc).
func BenchmarkSleepNext(b *testing.B) {
	k := sleepNext()
	defer k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(k.Now() + 3*sim.Time(b.N))
	b.StopTimer()
	if q := k.Queued(); q > 3 {
		b.Fatalf("%d activations queued, want only the start and a park at each of two limits", q)
	}
}

// sleepNext is BenchmarkSleepNext's set-up, warm: a process sleeping 3 us in a
// loop.
func sleepNext() *sim.Kernel {
	k := sim.NewKernel(1)
	k.Go("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(3)
		}
	})
	k.RunUntil(3 * 64) // warm up: coroutine started
	return k
}

// BenchmarkHeapChurn measures the queued path at a depth the workloads never
// reach: 64 sleepers at staggered periods, so the heap holds 63 entries, every
// wake-up is pushed and dropped through three levels, and each is resumed from
// the driver. One op is one wake-up. Steady state must report 0 allocs/op.
func BenchmarkHeapChurn(b *testing.B) {
	const procs = 64
	k := sim.NewKernel(1)
	defer k.Close()
	for i := 0; i < procs; i++ {
		period := sim.Time(64 + i)
		k.Go("p", func(p *sim.Proc) {
			for {
				p.Sleep(period)
			}
		})
	}
	k.RunUntil(64 * 64) // warm up: heap grown, coroutines started
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; {
		n -= k.RunUntil(k.Now() + 64)
	}
}

// BenchmarkSpawnExit measures a process's whole life — Go, first resume,
// one sleep, exit — one process at a time on a warm kernel: the Proc, the
// coroutine built for it and ended with its body, and two resumes (its start
// and its spawner's next wake-up; its own sleep is taken on the spot). It is
// what an application of a blocking style (pipelined, multi-threaded, under
// recovery) pays once per request.
func BenchmarkSpawnExit(b *testing.B) {
	k := sim.NewKernel(1)
	defer k.Close()
	body := func(p *sim.Proc) { p.Sleep(1) }
	k.Go("spawner", func(p *sim.Proc) {
		for {
			k.Go("req", body)
			p.Sleep(2)
		}
	})
	k.RunUntil(64) // warm up: rings grown, both coroutines started
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(k.Now() + 2*sim.Time(b.N))
}

// BenchmarkCodecRoundTrip measures one full call+reply wire round trip with
// reused buffers, structs and an interner. Steady state allocates nothing —
// the codec's zero-copy acceptance criterion (TestBenchSetupsZeroAlloc).
func BenchmarkCodecRoundTrip(b *testing.B) {
	roundTrip := codecRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// codecRoundTrip is BenchmarkCodecRoundTrip's set-up, warm: each call of the
// function it returns is one round trip.
func codecRoundTrip(tb testing.TB) func() {
	call := &rpcproto.Call{
		ID: 7, Seq: 1, AppID: 3, TenantID: 2, Weight: 4,
		KernelName: "monteCarloKernel", Compute: 5e8, MemTraffic: 1e8,
	}
	reply := &rpcproto.Reply{Seq: 1, Feedback: &rpcproto.Feedback{
		AppID: 3, Kind: "MC", MemBW: 0.42,
	}}
	cbuf := make([]byte, 0, rpcproto.CallWireSize(call))
	rbuf := make([]byte, 0, rpcproto.ReplyWireSize(reply))
	var gotCall rpcproto.Call
	var gotReply rpcproto.Reply
	var names rpcproto.Interner
	// Warm up: fill the interner, so the timed loop measures pure steady
	// state. The decoded report lands in gotReply's own frame.
	if cb, err := rpcproto.AppendCall(cbuf[:0], call); err == nil {
		_ = rpcproto.DecodeCallInto(&gotCall, cb[4:], &names)
	}
	if rb, err := rpcproto.AppendReply(rbuf[:0], reply); err == nil {
		_ = rpcproto.DecodeReplyInto(&gotReply, rb[4:], &names)
	}
	return func() {
		cb, err := rpcproto.AppendCall(cbuf[:0], call)
		if err != nil {
			tb.Fatal(err)
		}
		if err := rpcproto.DecodeCallInto(&gotCall, cb[4:], &names); err != nil {
			tb.Fatal(err)
		}
		rb, err := rpcproto.AppendReply(rbuf[:0], reply)
		if err != nil {
			tb.Fatal(err)
		}
		if err := rpcproto.DecodeReplyInto(&gotReply, rb[4:], &names); err != nil {
			tb.Fatal(err)
		}
		if gotCall.KernelName != call.KernelName || gotReply.Feedback == nil {
			tb.Fatal("round trip corrupted data")
		}
	}
}

// BenchmarkBackendCall measures one intercepted CUDA call through a Strings
// backend thread: a single application, its interposer driven from a daemon,
// on a warm one-GPU node cycles through a non-blocking host-to-device copy, a
// non-blocking launch and a blocking device-to-host copy. One op is one call.
// Steady state allocates nothing (TestBenchSetupsZeroAlloc).
func BenchmarkBackendCall(b *testing.B) {
	c, run := backendCall(b)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// backendCall is BenchmarkBackendCall's set-up, warm; run makes n more calls.
func backendCall(tb testing.TB) (c *core.Cluster, run func(n int)) {
	c, err := core.New(core.Config{
		Seed:  1,
		Nodes: []core.NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}},
		Mode:  core.ModeStrings,
	})
	if err != nil {
		tb.Fatal(err)
	}
	k := c.K
	calls, target := 0, 0
	more := new(sim.Signal)
	var callErr error
	var ip interpose.Interposer
	ip.Init(c.Fabric(0), k, 1, 1, 1, "bench", 0, true)
	kern := cuda.Kernel{Name: "bench", Compute: 4.8e6, Occupancy: 1}
	ops := [...]cuda.Op{{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 4096}, {ID: cuda.CallLaunch, Kernel: kern},
		{ID: cuda.CallMemcpy, Dir: cuda.D2H, Bytes: 4096}, {ID: cuda.CallMalloc, Bytes: 1 << 20}}
	busy := true
	ip.Issue(&ops[3]) // the Malloc, driven from the daemon's first step
	k.GoDaemon("app", func(d *sim.Daemon) {
		for callErr == nil {
			if busy {
				if !ip.Await(d) {
					return
				}
				busy = false
				var r cuda.Ret
				if r, callErr = ip.Result(); r.Ptr.Size > 0 {
					ops[0].Ptr, ops[2].Ptr = r.Ptr, r.Ptr
				} else {
					calls++
				}
			}
			if calls == target {
				d.WaitSignal(more)
				return
			}
			busy = true
			ip.Issue(&ops[calls%3])
		}
		d.Exit()
	})
	run = func(n int) {
		target = calls + n
		more.Notify()
		k.Run()
		if callErr != nil || calls != target {
			tb.Fatalf("%d of %d calls: %v", calls, target, callErr)
		}
	}
	run(3 * 64) // warm up: session started, frame pools and rings grown
	return c, run
}
