package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A sync application's frontend is a step machine (frontend, workload.Steps).
// What it owes the model is what App.Run on a coroutine does, wait for wait:
// runApp, which still runs the other styles, is the reference. Seeded scripts
// run both ways and must leave byte-equal request logs and traces.

// appScript is one cluster and the streams it serves.
type appScript struct {
	cfg     Config
	streams []workload.StreamSpec
	horizon sim.Time
}

// scriptKinds are the applications scripts draw from: every short class, and
// two long ones that hold their buffers for seconds.
var scriptKinds = []workload.Kind{
	workload.BlackScholes, workload.MonteCarlo, workload.Gaussian, workload.SortingNetworks,
	workload.Scan, workload.DXTC,
}

// newAppScript deals a script from rng: a mode (Strings, Rain or CUDA) and
// its policies, one node or up to three, on one kernel or one kernel each, a
// device memory that may not fit two buffers with or without BlockOnOOM, kill,
// stall and degrade faults on one kernel, and one to three streams of one to
// four requests, sync but for the odd pipelined one.
func newAppScript(rng *rand.Rand) appScript {
	sc := appScript{horizon: 40 * sim.Second}
	cfg := &sc.cfg
	cfg.Seed = 1 + rng.Int63n(1000)
	cfg.Recorder = trace.New()
	cfg.Mode = []Mode{ModeStrings, ModeRain, ModeCUDA}[rng.Intn(3)]
	if cfg.Mode != ModeCUDA {
		cfg.Balance = []string{"GRR", "GMin", "GWtMin", "RTF"}[rng.Intn(4)]
		cfg.DevPolicy = []string{"none", "TFS", "LAS", "PS"}[rng.Intn(3+btoi(cfg.Mode == ModeStrings))]
	}
	cfg.BlockOnOOM = rng.Intn(2) == 0
	nodes := 1 + rng.Intn(3)
	if nodes > 1 && rng.Intn(2) == 0 {
		cfg.Shards = 1
	}
	specs := []gpu.Spec{gpu.TeslaC2050, gpu.Quadro2000, gpu.TeslaC2070}
	var biggest int64
	for _, k := range scriptKinds {
		biggest = max(biggest, workload.ProfileFor(k).BufBytes)
	}
	for n := 0; n < nodes; n++ {
		var node NodeConfig
		for d := 0; d < 1+rng.Intn(2); d++ {
			spec := specs[rng.Intn(len(specs))]
			if rng.Intn(3) == 0 {
				spec.MemBytes = biggest * 3 / 2
			}
			node.Devices = append(node.Devices, spec)
		}
		cfg.Nodes = append(cfg.Nodes, node)
	}
	if cfg.Shards == 0 && cfg.Mode != ModeCUDA {
		gids := 0
		for _, n := range cfg.Nodes {
			gids += len(n.Devices)
		}
		at := func() sim.Time { return sim.Time(rng.Int63n(int64(10 * sim.Second))) }
		if rng.Intn(4) == 0 {
			cfg.Faults.Faults = append(cfg.Faults.Faults, faults.Fault{At: at(), Kind: faults.KillGPU, GID: rng.Intn(gids)})
		}
		if rng.Intn(4) == 0 {
			cfg.Faults.Faults = append(cfg.Faults.Faults, faults.Fault{At: at(), Kind: faults.StallGPU, GID: rng.Intn(gids), Dur: sim.Time(1 + rng.Int63n(int64(sim.Second)))})
		}
		if rng.Intn(4) == 0 {
			cfg.Faults.Faults = append(cfg.Faults.Faults, faults.Fault{At: at(), Kind: faults.DegradeGPU, GID: rng.Intn(gids), Factor: 1.5 + float64(rng.Intn(4))/2})
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		s := workload.StreamSpec{
			Kind: scriptKinds[rng.Intn(len(scriptKinds))], Count: 1 + rng.Intn(4),
			Lambda: sim.Time(1 + rng.Int63n(int64(3*sim.Second))), Node: rng.Intn(nodes),
			Tenant: int64(1 + rng.Intn(3)), Weight: 1 + rng.Intn(3),
			Start: sim.Time(rng.Int63n(int64(sim.Second))),
		}
		if rng.Intn(8) == 0 {
			s.Style = workload.StylePipelined
		}
		sc.streams = append(sc.streams, s)
	}
	return sc
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scriptRun is what a script leaves behind.
type scriptRun struct {
	log, jsonl []byte
	events     uint64
	end        sim.Time
	blocked    []string
	finished   int
	reused     bool // a frontend served a request after an earlier one
}

// runAppScript runs sc on a fresh cluster, its sync applications on frontend
// daemons or, with coroutine, on runApp.
func runAppScript(t testing.TB, sc appScript, coroutine bool) scriptRun {
	t.Helper()
	sc.cfg.Recorder = trace.New()
	c, err := New(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.syncOnCoroutine = coroutine
	r, err := c.RunUntil(sc.streams, sc.horizon)
	if err != nil {
		t.Fatal(err)
	}
	var out scriptRun
	var buf bytes.Buffer
	if err := r.WriteRequestLog(&buf); err != nil {
		t.Fatal(err)
	}
	out.log = buf.Bytes()
	for _, rec := range c.Recorders() {
		if open := rec.Open(); r.Finished == r.Launched && len(open) > 0 {
			t.Fatalf("all %d requests finished, but span %+v is open", r.Finished, open[0])
		}
		out.jsonl = rec.Snapshot().AppendJSONL(out.jsonl)
	}
	out.events, out.end, out.finished = c.Dispatched(), r.EndTime, r.Finished
	idle := 0
	for _, e := range c.envs {
		out.blocked = append(out.blocked, e.k.Blocked()...)
		idle += len(e.frontends)
	}
	out.reused = idle > 0 && idle < r.Finished
	return out
}

// checkAppScript runs sc both ways and fails on the first difference.
func checkAppScript(t testing.TB, i int, sc appScript) (want, got scriptRun) {
	t.Helper()
	want = runAppScript(t, sc, true)
	got = runAppScript(t, sc, false)
	what := fmt.Sprintf("script %d (%v %s/%s, shards %d, guard %v, %d nodes, faults %v, streams %+v)",
		i, sc.cfg.Mode, sc.cfg.Balance, sc.cfg.DevPolicy, sc.cfg.Shards, sc.cfg.BlockOnOOM, len(sc.cfg.Nodes), sc.cfg.Faults.Faults, sc.streams)
	if !bytes.Equal(got.log, want.log) {
		t.Fatalf("%s: request logs differ\nframes    %s\ncoroutine %s", what, got.log, want.log)
	}
	if !bytes.Equal(got.jsonl, want.jsonl) {
		t.Fatalf("%s: traces differ", what)
	}
	if got.events != want.events || got.end != want.end || !slices.Equal(got.blocked, want.blocked) {
		t.Fatalf("%s: %d events to %v, blocked %v; the coroutine %d to %v, blocked %v",
			what, got.events, got.end, got.blocked, want.events, want.end, want.blocked)
	}
	return want, got
}

// TestFrontendMatchesCoroutine runs 1 000 seeded scripts through the frontend
// daemon and through App.Run on a coroutine.
func TestFrontendMatchesCoroutine(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	rng := rand.New(rand.NewSource(31))
	var finished, errored, hung, sharded, reused int
	modes := map[Mode]int{}
	for i := 0; i < n; i++ {
		sc := newAppScript(rng)
		want, got := checkAppScript(t, i, sc)
		modes[sc.cfg.Mode]++
		finished += want.finished
		errored += bytes.Count(want.log, []byte(`"err":`))
		for _, name := range want.blocked {
			hung += btoi(strings.HasPrefix(name, "app-"))
		}
		sharded += btoi(sc.cfg.Shards > 0)
		reused += btoi(got.reused)
	}
	t.Logf("%d scripts (%d Strings, %d Rain, %d CUDA; %d sharded): %d requests finished, %d failed, %d stuck; %d reused a frontend",
		n, modes[ModeStrings], modes[ModeRain], modes[ModeCUDA], sharded, finished, errored, hung, reused)
	if errored == 0 || hung == 0 || sharded == 0 || reused == 0 {
		t.Fatal("the scripts no longer reach failed and stuck requests, sharded fleets and reused frontends")
	}
}

// FuzzFrontendSteps is the same check on scripts dealt from the fuzzer's bytes.
func FuzzFrontendSteps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		checkAppScript(t, 0, newAppScript(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}
