package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/gpu"
	"repro/internal/packer"
	"repro/internal/parallel"
	"repro/internal/remoting"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Layer drivers: fixed-count loops over each layer's public API, timed with
// parallel.Stopwatch. They run once per traced run, whatever the workload,
// and give the per-operation host cost of a layer with nothing else around
// it. frac scales the counts (the smoke test runs them tiny).

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// perOp converts an elapsed stopwatch into nanoseconds per operation.
func perOp(sw parallel.Stopwatch, ops int) float64 {
	return float64(sw.Nanoseconds()) / float64(ops)
}

// runDrivers runs every layer driver, each under its own host span, and
// returns their metrics by name.
func runDrivers(seed int64, frac float64, spans *spanLog) (map[string]float64, error) {
	m := make(map[string]float64)
	n := func(full int) int { return scaled(full, frac, 8) }
	drivers := []struct {
		name string
		run  func() error
	}{
		{"sim", func() error { driveSim(m, n); return nil }},
		{"shard", func() error { driveShard(m, n); return nil }},
		{"gpu", func() error { driveGPU(m, n); return nil }},
		{"cuda", func() error { driveCUDA(m, n); return nil }},
		{"packer", func() error { return drivePacker(m, n) }},
		{"devsched", func() error { driveDevsched(m, n); return nil }},
		{"balancer", func() error { return driveBalancer(m, n) }},
		{"rpcproto", func() error { return driveRPC(m, n) }},
		{"remoting", func() error { driveTCP(m, n); return nil }},
		{"workload", func() error { return driveWorkload(m, n, seed) }},
		{"trace", func() error { driveTrace(m, n); return nil }},
		// Last: every cluster built here leaves its daemon coroutines parked
		// for good, which would tax the collector under the other drivers.
		{"core", func() error { return driveCore(m, n, seed) }},
		{"cluster", func() error { return driveCluster(m, n, seed) }},
	}
	for _, d := range drivers {
		runtime.GC()
		end := spans.begin("driver." + d.name)
		err := d.run()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s driver: %w", d.name, err)
		}
	}
	return m, nil
}

// driveSim times the kernel: timer dispatch with a real park/resume handoff,
// queue ping-pong, and Reset of a used kernel.
func driveSim(m map[string]float64, n func(int) int) {
	const procs = 64
	sleeps := n(4096)
	k := sim.NewKernel(1)
	for p := 0; p < procs; p++ {
		period := sim.Time(1 + p%7)
		k.Go("p", func(pr *sim.Proc) {
			for t := 0; t < sleeps; t++ {
				pr.Sleep(period)
			}
		})
	}
	m0 := mallocs()
	sw := parallel.StartStopwatch()
	k.Run()
	m["sim.dispatch_ns"] = perOp(sw, int(k.Dispatched()))
	m["sim.allocs_per_event"] = float64(mallocs()-m0) / float64(k.Dispatched())

	rounds := n(200000)
	k = sim.NewKernel(1)
	ping, pong := sim.NewQueue[int](k), sim.NewQueue[int](k)
	k.Go("ping", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			ping.Put(r)
			pong.Get(p)
		}
	})
	k.Go("pong", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			pong.Put(ping.Get(p))
		}
	})
	sw = parallel.StartStopwatch()
	k.Run()
	m["sim.handoff_ns"] = perOp(sw, 2*rounds)

	resets := n(2000)
	var ns int64
	for i := 0; i < resets; i++ {
		for p := 0; p < 16; p++ {
			k.Go("p", func(pr *sim.Proc) { pr.Sleep(sim.Time(1 + p)) })
		}
		k.Run()
		sw := parallel.StartStopwatch()
		k.Reset(int64(i))
		ns += sw.Nanoseconds()
	}
	m["sim.reset_ns"] = float64(ns) / float64(resets)
}

// driveShard times one barrier window: four kernels with an event every
// lookahead, so every window has all four active.
func driveShard(m map[string]float64, n func(int) int) {
	const look = 10 * sim.Microsecond
	steps := n(200000)
	kernels := make([]*sim.Kernel, 4)
	for i := range kernels {
		kernels[i] = sim.NewKernel(int64(i + 1))
		kernels[i].Go("tick", func(p *sim.Proc) {
			for s := 0; s < steps; s++ {
				p.Sleep(look)
			}
		})
	}
	co := shard.NewCoordinator(kernels, look, 1)
	defer co.Close()
	sw := parallel.StartStopwatch()
	co.Run()
	if w := co.Stats().Windows; w > 0 {
		m["shard.window_ns"] = perOp(sw, int(w))
	}
}

// gpuOps submits ops kernels on each of streams streams of one context and
// returns the host nanoseconds per op.
func gpuOps(streams, ops int) float64 {
	k := sim.NewKernel(1)
	d := gpu.NewDevice(k, gpu.TeslaC2050, 0)
	ctx := d.NewContext()
	for s := 0; s < streams; s++ {
		k.Go("submit", func(p *sim.Proc) {
			st := ctx.NewStream()
			for i := 0; i < ops; i++ {
				p.Wait(st.Submit(&gpu.Op{Kind: gpu.OpKernel, Compute: 2e6, MemTraffic: 1e5, Occupancy: 0.3}))
			}
		})
	}
	sw := parallel.StartStopwatch()
	k.Run()
	return perOp(sw, streams*ops)
}

func driveGPU(m map[string]float64, n func(int) int) {
	m["gpu.op_ns"] = gpuOps(1, n(300000))
	m["gpu.op_ns_shared8"] = gpuOps(8, n(300000)/8)
}

// launchEvery is how many launches the cuda and packer drivers queue between
// stream synchronizes.
const launchEvery = 16

func driveCUDA(m map[string]float64, n func(int) int) {
	launches := n(300000)
	k := sim.NewKernel(1)
	d := gpu.NewDevice(k, gpu.TeslaC2050, 0)
	rt := cuda.NewRuntime(k, []*gpu.Device{d}, cuda.DefaultConfig())
	calls := 0
	k.Go("app", func(p *sim.Proc) {
		t := rt.NewThread(p, 1)
		kern := cuda.Kernel{Name: "k", Compute: 2e6, MemTraffic: 1e5, Occupancy: 0.3}
		for i := 0; i < launches; i++ {
			_ = t.Launch(kern, cuda.DefaultStream) // errors would show as a zero call count below
			if i%launchEvery == launchEvery-1 {
				_ = t.StreamSynchronize(cuda.DefaultStream)
			}
		}
		calls = t.Calls()
	})
	sw := parallel.StartStopwatch()
	k.Run()
	if calls > 0 {
		m["cuda.call_ns"] = perOp(sw, calls)
	}
}

func drivePacker(m map[string]float64, n func(int) int) error {
	launches := n(300000)
	k := sim.NewKernel(1)
	d := gpu.NewDevice(k, gpu.TeslaC2050, 0)
	rt := cuda.NewRuntime(k, []*gpu.Device{d}, cuda.DefaultConfig())
	pk := packer.New(rt, packer.DefaultConfig())
	var failed error
	execs := 0
	k.Go("backend-thread", func(p *sim.Proc) {
		port, err := pk.Open(p, 1, 1)
		if err != nil {
			failed = err
			return
		}
		launch := &rpcproto.Call{ID: cuda.CallLaunch, AppID: 1, KernelName: "k",
			Compute: 2e6, MemTraffic: 1e5, Occupancy: 0.3}
		sync := &rpcproto.Call{ID: cuda.CallStreamSync, AppID: 1}
		for i := 0; i < launches && failed == nil; i++ {
			call := launch
			if i%launchEvery == launchEvery-1 {
				call = sync
			}
			if r := port.Execute(call); r.Err != "" {
				failed = fmt.Errorf("call %s: %s", call.ID, r.Err)
			}
			execs++
		}
	})
	sw := parallel.StartStopwatch()
	k.Run()
	m["packer.exec_ns"] = perOp(sw, max(execs, 1))
	return failed
}

// driveDevsched times one dispatcher evaluation (Policy.Pick) over eight
// backlogged entries of four tenants in mixed phases.
func driveDevsched(m map[string]float64, n func(int) int) {
	turns := n(100000)
	phases := []devsched.Phase{devsched.PhaseKL, devsched.PhaseH2D, devsched.PhaseD2H, devsched.PhaseDFL}
	cfg := devsched.DefaultConfig()
	for _, pol := range []devsched.Policy{devsched.NewTFS(), devsched.LAS{}, devsched.PS{}} {
		entries := make([]*devsched.Entry, 8)
		for i := range entries {
			entries[i] = &devsched.Entry{
				AppID: i + 1, TenantID: int64(i%4 + 1), Weight: 1 + i%2,
				Phase: phases[i%len(phases)], Backlog: func() int { return 1 },
			}
		}
		sw := parallel.StartStopwatch()
		for t := 0; t < turns; t++ {
			now := sim.Time(t) * 10 * sim.Millisecond
			for _, e := range pol.Pick(now, entries, &cfg) {
				e.Attained += sim.Millisecond
				e.CGS++
			}
		}
		m["devsched.turn_ns."+pol.Name()] = perOp(sw, turns)
	}
}

// driveBalancer times Mapper.Select for every policy over a 16-row DST with
// 32 applications bound at any time and feedback flowing into the SFT.
func driveBalancer(m map[string]float64, n func(int) int) error {
	selects := n(50000)
	kinds := []string{"DC", "MC", "GA", "BS"}
	for _, name := range append(balancer.Names(), "Frag") {
		pol, err := balancer.ByName(name)
		if err != nil {
			return err
		}
		rows := make([]*balancer.DSTEntry, 16)
		for i := range rows {
			spec := []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050, gpu.Quadro4000, gpu.TeslaC2070}[i%4]
			rows[i] = &balancer.DSTEntry{
				GID: balancer.GID(i), Node: i / 4, LocalDev: i % 4, Name: spec.Name,
				Weight: spec.Weight, ComputeRate: spec.ComputeRate, MemBandwidth: spec.MemBandwidth,
			}
		}
		mp := balancer.NewMapper(balancer.NewDST(rows), pol)
		type bound struct {
			gid  balancer.GID
			kind string
		}
		var live [32]bound
		sw := parallel.StartStopwatch()
		for i := 0; i < selects; i++ {
			slot := &live[i%len(live)]
			if i >= len(live) {
				mp.Feedback(&rpcproto.Feedback{
					AppID: int64(i), Kind: slot.kind, GID: int32(slot.gid),
					ExecTime: 2 * sim.Second, GPUTime: sim.Second, XferTime: 100 * sim.Millisecond,
					MemBW: 500, GPUUtil: 0.5,
				})
				mp.Release(slot.gid, slot.kind)
			}
			kind := kinds[i%len(kinds)]
			*slot = bound{mp.Select(balancer.Request{AppID: i, Kind: kind, Node: i % 4, Tenant: int64(i % 8)}), kind}
		}
		m["balancer.select_ns."+name] = perOp(sw, selects)
	}
	return nil
}

// driveRPC times the wire codec (call and reply, encode and decode, reused
// buffers) and a blocking round trip over a simulated shared-memory conn.
func driveRPC(m map[string]float64, n func(int) int) error {
	trips := n(500000)
	call := &rpcproto.Call{ID: cuda.CallLaunch, Seq: 1, AppID: 3, TenantID: 2, Weight: 4,
		KernelName: "monteCarloKernel", Compute: 5e8, MemTraffic: 1e8}
	reply := &rpcproto.Reply{Seq: 1, Feedback: &rpcproto.Feedback{AppID: 3, Kind: "MC", MemBW: 0.42}}
	cbuf := make([]byte, 0, rpcproto.CallWireSize(call))
	rbuf := make([]byte, 0, rpcproto.ReplyWireSize(reply))
	var gotCall rpcproto.Call
	var gotReply rpcproto.Reply
	var names rpcproto.Interner
	trip := func() error {
		cb, err := rpcproto.AppendCall(cbuf[:0], call)
		if err != nil {
			return err
		}
		if err := rpcproto.DecodeCallInto(&gotCall, cb[4:], &names); err != nil {
			return err
		}
		rb, err := rpcproto.AppendReply(rbuf[:0], reply)
		if err != nil {
			return err
		}
		return rpcproto.DecodeReplyInto(&gotReply, rb[4:], &names)
	}
	if err := trip(); err != nil { // fills the interner before timing
		return fmt.Errorf("codec: %w", err)
	}
	m0 := mallocs()
	sw := parallel.StartStopwatch()
	for i := 0; i < trips; i++ {
		if err := trip(); err != nil {
			return fmt.Errorf("codec: %w", err)
		}
	}
	m["rpcproto.codec_roundtrip_ns"] = perOp(sw, trips)
	m["rpcproto.codec_allocs"] = float64(mallocs()-m0) / float64(trips)
	if gotCall.KernelName != call.KernelName || gotReply.Feedback == nil {
		return errors.New("codec round trip corrupted the frames")
	}

	rounds := n(100000)
	k := sim.NewKernel(1)
	conn := rpcproto.NewConn(k, rpcproto.SharedMemLink)
	k.Go("frontend", func(p *sim.Proc) {
		ep := conn.A()
		for i := 0; i < rounds; i++ {
			ep.Send(p, call, 0)
			ep.Recv(p)
		}
	})
	k.Go("backend", func(p *sim.Proc) {
		ep := conn.B()
		for i := 0; i < rounds; i++ {
			ep.Recv(p)
			ep.Send(p, reply, 0)
		}
	})
	sw = parallel.StartStopwatch()
	k.Run()
	m["rpcproto.conn_roundtrip_ns"] = perOp(sw, rounds)
	return nil
}

// driveTCP drives TCPBackend.Serve, the stringsd path, over one loopback
// connection in a closed loop: each round trip is a launch (no reply) and a
// stream synchronize (reply). A sandbox without loopback leaves the remoting
// metrics at zero; that is reported, not fatal, because this is a demo path.
func driveTCP(m map[string]float64, n func(int) int) {
	trips := n(20000)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: remoting driver skipped: %v\n", err)
		return
	}
	backend := &remoting.TCPBackend{Spec: gpu.TeslaC2050, ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}
	served := make(chan struct{})
	go func() { //lint:allow rawgo -- the loopback server must accept while this goroutine drives the client; it owns a private kernel per connection and is joined below
		defer close(served)
		_ = backend.Serve(lis) // returns once the listener closes
	}()
	defer func() {
		lis.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: remoting driver skipped: %v\n", err)
		return
	}
	defer conn.Close()

	launch := &rpcproto.Call{ID: cuda.CallLaunch, KernelName: "k", Compute: 2e6, MemTraffic: 1e5, NonBlocking: true}
	sync := &rpcproto.Call{ID: cuda.CallStreamSync}
	send := func(c *rpcproto.Call) error {
		frame, err := rpcproto.EncodeCall(c)
		if err != nil {
			return err
		}
		return rpcproto.WriteFrame(conn, frame)
	}
	roundTrip := func() error {
		if err := send(launch); err != nil {
			return err
		}
		if err := send(sync); err != nil {
			return err
		}
		body, err := rpcproto.ReadFrame(conn)
		if err != nil {
			return err
		}
		msg, err := rpcproto.Decode(body)
		if err != nil {
			return err
		}
		if r, ok := msg.(*rpcproto.Reply); !ok || r.Err != "" {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	rtts := make([]float64, 0, trips)
	failed := 0
	total := parallel.StartStopwatch()
	for i := 0; i < trips; i++ {
		sw := parallel.StartStopwatch()
		if err := roundTrip(); err != nil {
			failed++
			if failed > 10 {
				break // the connection is gone; do not spin on it
			}
			continue
		}
		rtts = append(rtts, float64(sw.Nanoseconds())/1e3)
	}
	elapsed := total.Seconds()
	m["remoting.tcp_failed"] = float64(failed)
	if len(rtts) > 0 {
		slices.Sort(rtts)
		m["remoting.tcp_calls_per_s"] = 2 * float64(len(rtts)) / elapsed
		m["remoting.tcp_rtt_p50_us"] = rtts[len(rtts)/2]
		m["remoting.tcp_rtt_p99_us"] = rtts[len(rtts)*99/100]
	}
}

// driveCore times building (and closing) a Strings cluster.
func driveCore(m map[string]float64, n func(int) int, seed int64) error {
	builds := n(300)
	for _, nodes := range []int{1, 4} {
		cfg := core.Config{Seed: seed, Mode: core.ModeStrings, Balance: "GMin", DevPolicy: "TFS"}
		for i := 0; i < nodes; i++ {
			cfg.Nodes = append(cfg.Nodes, twoGPUNode())
		}
		sw := parallel.StartStopwatch()
		for i := 0; i < builds; i++ {
			c, err := core.New(cfg)
			if err != nil {
				return err
			}
			c.Close()
		}
		m[fmt.Sprintf("core.new_us.%dnode", nodes)] = perOp(sw, builds) / 1e3
	}
	return nil
}

// driveCluster times the cluster tier on tenants that issue one request
// each, so placement is as large a share of the run as the public API allows.
// Lifetimes are floored at Lambda, so a Lambda well above MeanLife gives
// nearly every tenant exactly one request; the birth rate keeps the 48-slot
// fleet below capacity.
func driveCluster(m map[string]float64, n func(int) int, seed int64) error {
	tenants := n(3000)
	sn := cluster.Supernode{Nodes: []core.NodeConfig{twoGPUNode(), twoGPUNode()}}
	cfg := cluster.Config{
		Seed: seed, Supernodes: []cluster.Supernode{sn, sn, sn}, Workers: 1,
		ParkCapacity: 1 << 20,
		Arrivals: workload.OpenArrivalSpec{
			Process: workload.ProcPoisson, Rate: 2, Horizon: sim.FromSeconds(float64(tenants) / 2),
			Kind: workload.Gaussian, MeanLife: 2 * sim.Second, Lambda: 20 * sim.Second,
		},
	}
	sw := parallel.StartStopwatch()
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	if res.Log.Placed != res.Log.Born {
		return fmt.Errorf("placed %d of %d tenants", res.Log.Placed, res.Log.Born)
	}
	if res.Log.Born > 0 {
		m["cluster.place_us_per_tenant"] = perOp(sw, res.Log.Born) / 1e3
	}
	return nil
}

// driveWorkload times input generation: tenant births and request arrivals.
func driveWorkload(m map[string]float64, n func(int) int, seed int64) error {
	spec := workload.OpenArrivalSpec{
		Process: workload.ProcBursty, Rate: 100, Horizon: sim.FromSeconds(float64(n(400000)) / 100),
		Kind: workload.Gaussian, MeanLife: 80 * sim.Second, Lambda: 800 * sim.Millisecond,
		BigEvery: 8, BigSlots: 4, BurstMean: 8, BurstSpread: 2 * sim.Second,
	}
	sw := parallel.StartStopwatch()
	births, err := spec.Births(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	m["workload.births_ns_per_tenant"] = perOp(sw, max(len(births), 1))

	stream := workload.StreamSpec{Kind: workload.Gaussian, Count: n(2000000), LambdaFactor: 1.5}
	sw = parallel.StartStopwatch()
	arrivals := stream.Arrivals(rand.New(rand.NewSource(seed)))
	m["workload.arrivals_ns_per_request"] = perOp(sw, max(len(arrivals), 1))
	return nil
}

// driveTrace times recording a span with the recorder on and off, and the
// JSONL export.
func driveTrace(m map[string]float64, n func(int) int) {
	spans := n(300000)
	record := func(rec *trace.Recorder) float64 {
		sw := parallel.StartStopwatch()
		for i := 0; i < spans; i++ {
			id := rec.Begin(trace.KCall, 0, sim.Time(i), "cudaLaunch", i&1023, 1, int64(i))
			rec.End(id, sim.Time(i+5))
		}
		return perOp(sw, spans)
	}
	rec := trace.New()
	m["trace.span_ns"] = record(rec)
	m["trace.disabled_span_ns"] = record(nil)
	set := rec.Snapshot()
	sw := parallel.StartStopwatch()
	out := set.AppendJSONL(nil)
	m["trace.jsonl_mb_per_s"] = float64(len(out)) / 1e6 / sw.Seconds()
}
