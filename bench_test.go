// Package repro's top-level benchmarks regenerate the paper's tables and
// figures, one testing.B per exhibit. Each benchmark executes the figure's
// full simulation sweep per iteration and reports the figure's headline
// number(s) as custom metrics (e.g. the AVG weighted speedup of a policy),
// so `go test -bench=. -benchmem` prints the reproduction alongside its
// simulation cost. Benchmarks use a reduced request count per stream to
// keep iterations fast; `cmd/strings-bench` runs the full-scale versions.
package repro

import (
	"testing"

	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/stringsched"
)

// benchSuite builds a fresh suite per iteration (memoization must not leak
// across b.N iterations, or the later iterations would measure cache hits).
func benchSuite() *stringsched.Suite {
	return stringsched.NewSuite(stringsched.SuiteOptions{
		Seed:     1,
		Requests: 8,
		Pairs:    stringsched.Pairs()[:8], // A..H: DC and SC against all of Group B
	})
}

// report pushes a figure's AVG series values as benchmark metrics.
func report(b *testing.B, tab *stringsched.Table, metricSuffix string, series ...string) {
	b.Helper()
	for _, name := range series {
		row := tab.Row(name)
		if row == nil {
			b.Fatalf("series %q missing", name)
		}
		b.ReportMetric(row[len(row)-1], name+metricSuffix)
	}
}

// BenchmarkTableI regenerates Table I (benchmark characteristics measured
// solo on the reference device).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := stringsched.NewSuite(stringsched.SuiteOptions{Seed: 1, Requests: 4})
		tab := s.TableI()
		if i == 0 {
			// Headline: the transfer-dominated MC row.
			idx := len(tab.Labels) - 3 // MC is third from the end of AllKinds
			b.ReportMetric(tab.Row("GPU Time %")[idx], "MC_gpu_pct")
			b.ReportMetric(tab.Row("Transfer %")[idx], "MC_xfer_pct")
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (compute/memory utilization bands).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := stringsched.NewSuite(stringsched.SuiteOptions{
			Seed: 1, Requests: 4,
			Apps: []stringsched.Kind{stringsched.DXTC, stringsched.MonteCarlo, stringsched.Gaussian},
		})
		tab := s.Fig1()
		if i == 0 {
			b.ReportMetric(tab.Row("Compute %")[0], "DC_compute_pct")
			b.ReportMetric(tab.Row("Compute %")[2], "GA_compute_pct")
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (sequential vs concurrent Monte Carlo
// utilization).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := stringsched.NewSuite(stringsched.SuiteOptions{Seed: 1, Requests: 5})
		r := s.Fig2()
		if i == 0 {
			b.ReportMetric(float64(r.SeqGlitches), "seq_glitches")
			b.ReportMetric(float64(r.ConcGlitches), "conc_glitches")
			b.ReportMetric(r.SeqMakespan.Seconds()/r.ConcMakespan.Seconds(), "makespan_ratio")
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (workload balancing vs the CUDA
// runtime on one two-GPU node). Paper AVG: GRR/GMin/GWtMin-Strings
// 3.10/4.90/4.73×.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := stringsched.NewSuite(stringsched.SuiteOptions{
			Seed: 1, Requests: 8,
			Apps: []stringsched.Kind{stringsched.DXTC, stringsched.Scan,
				stringsched.MonteCarlo, stringsched.BlackScholes},
		})
		tab := s.Fig9()
		if i == 0 {
			report(b, tab, "_x", "GRR-Rain", "GRR-Strings", "GMin-Strings")
		}
	}
}

// BenchmarkFig10 regenerates Figure 10 (GPU sharing on the supernode).
// Paper AVG: GRR-Rain 1.60×, GWtMin-Strings 2.88×.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchSuite().Fig10()
		if i == 0 {
			report(b, tab, "_x", "GRR-Rain", "GWtMin-Strings")
		}
	}
}

// BenchmarkFig11 regenerates Figure 11 (Jain fairness). Paper AVG:
// TFS-Strings 91%, +13% over the CUDA runtime.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := stringsched.NewSuite(stringsched.SuiteOptions{
			Seed: 1, Requests: 6, Pairs: stringsched.Pairs()[:4],
		})
		tab := s.Fig11()
		if i == 0 {
			report(b, tab, "_jain", "CUDA", "TFS-Rain", "TFS-Strings")
		}
	}
}

// BenchmarkFig12 regenerates Figure 12 (LAS/PS + GWtMin vs 1-node GRR).
// Paper AVG: 2.18/3.10/2.97×.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchSuite().Fig12()
		if i == 0 {
			report(b, tab, "_x", "GWtMinLAS-Rain", "GWtMinLAS-Strings", "GWtMinPS-Strings")
		}
	}
}

// BenchmarkFig13 regenerates Figure 13 (scheduling alone vs 4-GPU GRR).
// Paper AVG: 1.40/1.95/1.90×.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchSuite().Fig13()
		if i == 0 {
			report(b, tab, "_x", "LAS-Rain", "LAS-Strings", "PS-Strings")
		}
	}
}

// BenchmarkFig14 regenerates Figure 14 (RTF/GUF feedback balancing).
// Paper AVG: 2.22/2.51/3.23/3.96×.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchSuite().Fig14()
		if i == 0 {
			report(b, tab, "_x", "RTF-Rain", "GUF-Rain", "RTF-Strings", "GUF-Strings")
		}
	}
}

// BenchmarkFig15 regenerates Figure 15 (DTF/MBF). Paper AVG: 3.73/4.02×
// vs 1-node GRR (8.70× vs the bare CUDA runtime for MBF).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchSuite().Fig15()
		if i == 0 {
			report(b, tab, "_x", "DTF-Strings", "MBF-Strings")
		}
	}
}

// BenchmarkAblations runs the design-choice ablations (context-switch cost,
// copy engines, interconnect bandwidth, LAS decay, Policy Arbiter).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := stringsched.NewSuite(stringsched.SuiteOptions{
			Seed: 1, Requests: 6, Pairs: stringsched.Pairs()[:1],
		})
		ctx := s.AblationContextSwitch()
		net := s.AblationRemoteBandwidth()
		if i == 0 {
			rain := ctx.Row("Rain")
			b.ReportMetric(rain[len(rain)-1]/rain[0], "rain_ctxswitch_degradation")
			ws := net.Row("WS vs 1N-GRR")
			b.ReportMetric(ws[len(ws)-1]/ws[0], "fastnet_over_gige")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: virtual
// seconds simulated per wall second for a busy two-GPU node.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := stringsched.NewCluster(stringsched.Config{
			Seed: int64(i + 1),
			Nodes: []stringsched.NodeConfig{{Devices: []stringsched.DeviceSpec{
				stringsched.Quadro2000, stringsched.TeslaC2050,
			}}},
			Mode:    stringsched.ModeStrings,
			Balance: "GMin",
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := c.Run([]stringsched.StreamSpec{{
			Kind: stringsched.MonteCarlo, Count: 6, LambdaFactor: 0.5,
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
		rec := stringsched.NewTraceRecorder()
		c, err := stringsched.NewCluster(stringsched.Config{
			Seed: int64(i + 1),
			Nodes: []stringsched.NodeConfig{{Devices: []stringsched.DeviceSpec{
				stringsched.Quadro2000, stringsched.TeslaC2050,
			}}},
			Mode:     stringsched.ModeStrings,
			Balance:  "GMin",
			Recorder: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := c.Run([]stringsched.StreamSpec{{
			Kind: stringsched.MonteCarlo, Count: 6, LambdaFactor: 0.5,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		c.Close()
		if err != nil || len(r.Errors) > 0 {
			b.Fatalf("%v %v", err, r.Errors)
		}
		if i == 0 {
			b.ReportMetric(float64(rec.Len()), "spans/op")
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
// sim.Queue: a producer and a consumer alternating through a pair of
// depth-one queues, the pattern behind every interposer→scheduler exchange.
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
	}
}

// BenchmarkTimerDelivery measures one AfterPut -> Get round trip at the
// remote link's 60 us: the timer's heap entry fired inline plus the
// receiver's wakeup. Steady state must report 0 allocs/op.
func BenchmarkTimerDelivery(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(k.Now() + 60*sim.Time(b.N))
}

// BenchmarkSpawnExit measures a process's whole life — Go, first resume,
// one sleep, exit — as the request path pays it: one process at a time on a
// warm kernel, so each spawn moves into the coroutine the last one left. The
// allocation is the Proc itself.
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
// reused buffers, structs and an interner. Steady state must report
// 0 allocs/op — the codec's zero-copy acceptance criterion.
func BenchmarkCodecRoundTrip(b *testing.B) {
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
	// Warm up: fill the interner and let the reply's Feedback struct be
	// allocated once, so the timed loop measures pure steady state.
	if cb, err := rpcproto.AppendCall(cbuf[:0], call); err == nil {
		_ = rpcproto.DecodeCallInto(&gotCall, cb[4:], &names)
	}
	if rb, err := rpcproto.AppendReply(rbuf[:0], reply); err == nil {
		_ = rpcproto.DecodeReplyInto(&gotReply, rb[4:], &names)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := rpcproto.AppendCall(cbuf[:0], call)
		if err != nil {
			b.Fatal(err)
		}
		if err := rpcproto.DecodeCallInto(&gotCall, cb[4:], &names); err != nil {
			b.Fatal(err)
		}
		rb, err := rpcproto.AppendReply(rbuf[:0], reply)
		if err != nil {
			b.Fatal(err)
		}
		if err := rpcproto.DecodeReplyInto(&gotReply, rb[4:], &names); err != nil {
			b.Fatal(err)
		}
	}
	if gotCall.KernelName != call.KernelName || gotReply.Feedback == nil {
		b.Fatal("round trip corrupted data")
	}
}
