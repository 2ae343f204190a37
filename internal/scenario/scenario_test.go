package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/devsched"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzScenarioRoundTrip: Parse never panics, and whatever it accepts prints
// to a form that parses back to the same value. The committed corpus holds
// the CLIs' default scenarios, the golden tests', the fairshare example's and
// cells the experiment suite runs: a Fig 9 baseline, a context-switch
// ablation, a Fig 11 horizon cut and a fragmentation-study roster.
func FuzzScenarioRoundTrip(f *testing.F) {
	f.Add("fleet=TeslaC2050:mig+TeslaC2050:mig/Quadro4000;streams=GA:4:3g,MC:2@1;faults=KillGPU:1@10s,StallGPU:0@5s/2s,DegradeGPU:2@1s/2.5,KillNode:1@30s;memguard=true;style=pipelined")
	f.Add("supernodes=2;policy=frag;arrivals=diurnal:rate=2,horizon=600s,period=120s,depth=0.6;seed=-4")
	f.Add("streams=MC:1;streams=MC:2")
	f.Add("streams=MC:1;faults=StallGPU:0@1s")
	f.Add(";=;")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", text, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("Parse(%q) printed %q, which parses to\n%+v\nnot\n%+v", text, s.String(), back, s)
		}
	})
}

// TestParseBuilds pins what the text form builds: each key's value lands in
// the core or cluster configuration the way a hand-built one would have it.
func TestParseBuilds(t *testing.T) {
	s, err := Parse("fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070:mig;mode=rain;balance=GRR;dev=TFS;" +
		"streams=MC:4,SC:3:1g@1;lambda=0.8;style=multithread;faults=KillNode:1@30s,DegradeGPU:2@1ms/2.5;memguard=1;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	cfg, streams := s.Core()
	want := core.Config{
		Seed: 7, Mode: core.ModeRain, Balance: "GRR", DevPolicy: "TFS", BlockOnOOM: true,
		RemoteLink: rpcproto.RemoteLink, Sched: devsched.DefaultConfig(),
		Nodes: []core.NodeConfig{
			{Devices: []gpu.Spec{gpu.Quadro2000, gpu.TeslaC2050}},
			{Devices: []gpu.Spec{gpu.Quadro4000, gpu.TeslaC2070.WithMIG()}},
		},
		Faults: faults.Plan{Faults: []faults.Fault{
			{At: 30 * sim.Second, Kind: faults.KillNode, Node: 1},
			{At: sim.Millisecond, Kind: faults.DegradeGPU, GID: 2, Factor: 2.5},
		}},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("Core() = %+v\nwant %+v", cfg, want)
	}
	wantStreams := []workload.StreamSpec{
		{Kind: workload.MonteCarlo, Count: 4, LambdaFactor: 0.8, Tenant: 1, Weight: 1, Style: workload.StyleMultiThread},
		{Kind: workload.Scan, Count: 3, LambdaFactor: 0.8, Node: 1, Tenant: 2, Weight: 1, Style: workload.StyleMultiThread, SliceProfile: "1g"},
	}
	if !reflect.DeepEqual(streams, wantStreams) {
		t.Errorf("streams = %+v\nwant %+v", streams, wantStreams)
	}
	if got, want := s.String(), "fleet=Quadro2000+TeslaC2050/Quadro4000+TeslaC2070:mig;mode=rain;balance=GRR;dev=TFS;"+
		"streams=MC:4,SC:3:1g@1;lambda=0.8;style=multithread;faults=KillNode:1@30s,DegradeGPU:2@1ms/2.5;memguard=true;seed=7"; got != want {
		t.Errorf("String() = %q\nwant %q", got, want)
	}

	s, err = Parse("fleet=TeslaC2050{ctxswitch=0s,copyengines=1}/Quadro2000:mig{copyengines=2};" +
		"streams=HI:10/every=1s/weight=3,MC:40@1/lambda=0.4/start=1.5s/weight=1;horizon=40s;linkbw=125;lasdecay=0.5;acctlag=50ms;timeout=1m")
	if err != nil {
		t.Fatal(err)
	}
	cfg, streams = s.Core()
	tesla, quadro := gpu.TeslaC2050, gpu.Quadro2000.WithMIG()
	tesla.ContextSwitch, tesla.CopyEngines, quadro.CopyEngines = 0, 1, 2
	want = core.Config{
		Seed: 1, Mode: core.ModeStrings, Balance: "GMin", DevPolicy: "none",
		Nodes:      []core.NodeConfig{{Devices: []gpu.Spec{tesla}}, {Devices: []gpu.Spec{quadro}}},
		RemoteLink: rpcproto.LinkSpec{Latency: rpcproto.RemoteLink.Latency, Bandwidth: 125},
		Sched:      devsched.Config{LASDecay: 0.5, AccountingLag: 50 * sim.Millisecond},
		Recovery:   interpose.Recovery{CallTimeout: 60 * sim.Second},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("Core() = %+v\nwant %+v", cfg, want)
	}
	wantStreams = []workload.StreamSpec{
		{Kind: workload.Histogram, Count: 10, Lambda: sim.Second, LambdaFactor: 0.6, Tenant: 1, Weight: 3},
		{Kind: workload.MonteCarlo, Count: 40, LambdaFactor: 0.4, Node: 1, Tenant: 2, Weight: 1, Start: 1500 * sim.Millisecond},
	}
	if !reflect.DeepEqual(streams, wantStreams) {
		t.Errorf("streams = %+v\nwant %+v", streams, wantStreams)
	}
	if got, want := s.String(), "fleet=TeslaC2050{ctxswitch=0s,copyengines=1}/Quadro2000:mig{copyengines=2};"+
		"streams=HI:10/every=1s/weight=3,MC:40@1/lambda=0.4/start=1500ms;horizon=40s;linkbw=125;lasdecay=0.5;acctlag=50ms;timeout=60s"; got != want {
		t.Errorf("String() = %q\nwant %q", got, want)
	}

	s, err = Parse("supernodes=2;fleet=TeslaC2050;policy=frag;arrivals=bursty:rate=5,horizon=300s,burst=6,spread=2s;seed=3")
	if err != nil {
		t.Fatal(err)
	}
	sn := cluster.Supernode{Nodes: []core.NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}}
	arr, _ := workload.ParseOpenArrivalSpec("bursty:rate=5,horizon=300s,burst=6,spread=2s")
	if got, want := s.Cluster(), (cluster.Config{Seed: 3, Supernodes: []cluster.Supernode{sn, sn}, Policy: "frag", Arrivals: arr}); !reflect.DeepEqual(got, want) {
		t.Errorf("Cluster() = %+v\nwant %+v", got, want)
	}
}

// TestParseRejects: every malformed or meaningless scenario is an error that
// names what is wrong and, for a name, the valid ones.
func TestParseRejects(t *testing.T) {
	cases := []struct{ text, want string }{
		{"", "no streams="},
		{"streams=MC:1;seed", "not key=value"},
		{"streams=MC:1;color=red", `unknown key "color"`},
		{"streams=MC:1;streams=DC:1", "given twice"},
		{"streams=ZZ:1", "unknown benchmark \"ZZ\"; valid: [DC SC BO MM HI EV BS MC GA SN]"},
		{"streams=MC", "not KIND:COUNT"},
		{"streams=MC:0", "count must be at least 1"},
		{"streams=MC:1:", "empty slice profile"},
		{"streams=MC:1@x", "node must be a node index"},
		{"streams=MC:1;mode=vulkan", "unknown mode \"vulkan\"; valid: cuda, rain, strings"},
		{"streams=MC:1;balance=BOGUS", "unknown balancing policy \"BOGUS\"; valid: GRR, GMin"},
		{"streams=MC:1;dev=FIFO", "unknown device policy \"FIFO\"; valid: none, TFS, LAS, PS"},
		{"streams=MC:1;lambda=0", "lambda: \"0\" is not a positive number"},
		{"streams=MC:1;style=lazy", "unknown style \"lazy\"; valid: sync, pipelined, multithread"},
		{"streams=MC:1;memguard=maybe", "memguard: strconv.ParseBool"},
		{"streams=MC:1;seed=x", "seed: strconv.ParseInt"},
		{"streams=MC:1;fleet=Quadro2000+H100", "unknown device \"H100\"; valid: Quadro2000"},
		{"streams=MC:1;faults=Melt:0@1s", "is not KillNode|KillGPU"},
		{"streams=MC:1;faults=KillGPU:0@-1s", "duration >= 0"},
		{"streams=MC:1;faults=StallGPU:0@1s", "a stall takes /DURATION"},
		{"streams=MC:1;faults=DegradeGPU:0@1s/0", "a stall takes /DURATION"},
		{"streams=MC:1;faults=KillGPU:0@1s/2s", "a kill nothing"},
		{"streams=MC:1;policy=frag", "policy= has no effect on this run (supernodes=0)"},
		{"supernodes=0", "supernodes: \"0\" is not a positive integer"},
		{"supernodes=2", "supernodes= needs arrivals="},
		{"supernodes=2;arrivals=lunar:rate=1", "unknown arrival process"},
		{"supernodes=2;arrivals=poisson:rate=1,horizon=1s;policy=random", "unknown placement policy \"random\"; valid: least-loaded, frag"},
		{"supernodes=2;arrivals=poisson:rate=1,horizon=1s;streams=MC:1", "streams= has no effect on this run (supernodes=2)"},
		{"supernodes=2;arrivals=poisson:rate=1,horizon=1s;horizon=5s", "horizon= has no effect on this run (supernodes=2)"},
		{"streams=MC:1;horizon=0s", `horizon: "0s" is not a duration of at least 1us`},
		{"streams=MC:1;lasdecay=1.5", `lasdecay: "1.5" is not a number in (0, 1]`},
		{"streams=MC:1;linkbw=-1", `linkbw: "-1" is not a positive number`},
		{"streams=MC:1;acctlag=-1s", `acctlag: "-1s" is not a duration of at least 0s`},
		{"streams=MC:1/speed=2", `unknown key "speed"; valid: lambda, every, start, weight`},
		{"streams=MC:1/every=1s/every=2s", `key "every" given twice`},
		{"streams=MC:1/lambda=0.5/every=1s", "lambda= and every= both set"},
		{"streams=MC:1/weight=0", `weight: "0" is not a positive integer`},
		{"streams=MC:1;fleet=TeslaC2050{copyengines=3}", `copyengines: "3" is not 1 or 2`},
		{"streams=MC:1;fleet=TeslaC2050{ctxswitch=0s", "overrides go in {KEY=VALUE,...}"},
		{"streams=MC:1;fleet=TeslaC2050{memory=1}", `unknown key "memory"; valid: ctxswitch, copyengines`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", tc.text, err, tc.want)
		}
	}
}

// TestAppendAllocatesNothing: a memo keys every lookup on the text form, so
// printing a scenario that uses every level of the grammar — device
// overrides, stream options, durations, numbers and faults — into a buffer
// with room allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	s, err := Parse("fleet=TeslaC2050{ctxswitch=0s,copyengines=1}+Quadro2000/TeslaC2070;mode=rain;dev=TFS;" +
		"streams=DC:8/every=1s,MC:40@1/every=500ms/start=2s/weight=3,GA:3:1g/lambda=0.4;horizon=40s;linkbw=125;lasdecay=0.5;" +
		"acctlag=50ms;timeout=60s;faults=KillNode:1@12345us,DegradeGPU:0@1s/2.5;memguard=true;seed=9")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = s.Append(buf[:0]) }); n != 0 {
		t.Errorf("Append allocates %v times, want 0", n)
	}
	if got := string(buf); got != s.String() {
		t.Errorf("Append wrote %q, String is %q", got, s.String())
	}
}
