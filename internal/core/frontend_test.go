package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// An application's frontend is a step machine (frontend, workload.Steps). What
// it owes the model is what the coroutine request path it replaced did, wait
// for wait: seeded scripts must leave the request logs, traces, end times and
// blocked processes that path left, whose digests testdata/transcripts.txt
// keeps.

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
// stall and degrade faults on one kernel, recovery armed on a third of the
// interposed scripts, and one to three streams of one to four requests, half
// of them sync, a quarter pipelined and a quarter multi-threaded.
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
	if cfg.Mode != ModeCUDA && rng.Intn(3) == 0 {
		cfg.CallTimeout = []sim.Time{20 * sim.Millisecond, 500 * sim.Millisecond, 5 * sim.Second}[rng.Intn(3)]
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		s := workload.StreamSpec{
			Kind: scriptKinds[rng.Intn(len(scriptKinds))], Count: 1 + rng.Intn(4),
			Lambda: sim.Time(1 + rng.Int63n(int64(3*sim.Second))), Node: rng.Intn(nodes),
			Tenant: int64(1 + rng.Intn(3)), Weight: 1 + rng.Intn(3),
			Start: sim.Time(rng.Int63n(int64(sim.Second))),
		}
		switch rng.Intn(4) {
		case 0:
			s.Style = workload.StylePipelined
		case 1:
			s.Style = workload.StyleMultiThread
		}
		sc.streams = append(sc.streams, s)
	}
	return sc
}

// newMIGScript deals a script for a MIG fleet: Strings on one node of one or
// two partitionable devices, one to three slice tenants of one to three
// requests each, and a third of the time a horizon that cuts the run off.
// Carved slices are devices too, so a warm slab hands them out again.
func newMIGScript(rng *rand.Rand) appScript {
	sc := appScript{horizon: 40 * sim.Second}
	if rng.Intn(3) == 0 {
		sc.horizon = sim.Time(1 + rng.Int63n(int64(4*sim.Second)))
	}
	sc.cfg = Config{Seed: 1 + rng.Int63n(1000), Mode: ModeStrings, Balance: "Frag", BlockOnOOM: rng.Intn(2) == 0}
	sc.cfg.Nodes = []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050.WithMIG()}}}
	if rng.Intn(2) == 0 {
		sc.cfg.Nodes[0].Devices = append(sc.cfg.Nodes[0].Devices, gpu.Quadro4000.WithMIG())
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sc.streams = append(sc.streams, workload.StreamSpec{
			Kind: scriptKinds[rng.Intn(len(scriptKinds))], Count: 1 + rng.Intn(3),
			Lambda: sim.Time(1 + rng.Int63n(int64(3*sim.Second))), Tenant: int64(1 + i), Weight: 1,
			SliceProfile: []string{"1g", "2g", "3g", "7g"}[rng.Intn(4)],
		})
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
	launched   int
	finished   int
	styles     [3]int // requests finished, by style
	carves     int    // MIG slices carved
	reused     bool   // a frontend served a request after an earlier one of the run
	warm       bool   // a frontend an earlier run left served one of this run
}

// playScript runs sc on a cluster of its own, or on one warm from the arena a
// when a is not nil.
func playScript(t testing.TB, sc appScript, a *arena) scriptRun {
	t.Helper()
	sc.cfg.Recorder = trace.New()
	cold := a == nil
	if cold {
		a = new(arena)
	}
	c, err := newCluster(sc.cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Frontends are taken from the free list last in, first out, so the first
	// one started on the lent kernel is one an earlier run left, if any is.
	left := len(c.envs[0].frontends)
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
		out.jsonl = rec.Snapshot().AppendJSONL(out.jsonl)
	}
	// A failover abandons its backend session mid-call, the session's
	// exec span with it; short of that, every span of a finished run ends.
	if r.Finished == r.Launched && !bytes.Contains(out.jsonl, []byte(`"kind":"failover"`)) {
		for _, rec := range c.Recorders() {
			if open := rec.Open(); len(open) > 0 {
				t.Fatalf("all %d requests finished, but span %+v is open", r.Finished, open[0])
			}
		}
	}
	out.events, out.end, out.launched, out.finished, out.carves = c.Dispatched(), r.EndTime, r.Launched, r.Finished, r.SliceCarves
	for _, ev := range r.Requests {
		out.styles[ev.Style] += btoi(ev.Err == "")
	}
	out.warm = left > 0 && len(c.envs[0].apps) > 0
	idle := 0
	for _, e := range c.envs {
		out.blocked = append(out.blocked, e.k.Blocked()...)
		idle += len(e.frontends)
	}
	out.reused = cold && idle > 0 && idle < r.Finished
	return out
}

// digest is the sha256 of what a run leaves: its request log, JSONL trace,
// end time and blocked processes.
func (r scriptRun) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s", r.log, r.jsonl, r.end, strings.Join(r.blocked, "\n"))
	return hex.EncodeToString(h.Sum(nil))
}

// transcripts.txt holds one line per script newAppScript deals from
// rand.NewSource(31), in order, after a comment: its index, the digest of its
// run, and the activations the run dispatched. The coroutine request path the
// frontend daemon replaced wrote it; it is not regenerated.

// TestFrontendMatchesCoroutine runs the transcribed scripts on frontend
// daemons: each run must leave the digest the coroutine request path left and
// dispatch no more activations than it did. Every second script runs warm, on
// a kernel one arena lends them all, so half the digests hold reused sessions,
// frontends and processes to what fresh ones did. The scripts reach every
// style under every mode, sharded fleets, failed and stuck requests, reused
// frontends, warm runs, retransmits, failovers and lost backends.
func TestFrontendMatchesCoroutine(t *testing.T) {
	data, err := os.ReadFile("testdata/transcripts.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	if testing.Short() {
		lines = lines[:150]
	}
	rng, migs := rand.New(rand.NewSource(31)), rand.New(rand.NewSource(37))
	var warm arena
	reach := map[string]bool{}
	set := func(what string, ok bool) { reach[what] = reach[what] || ok }
	for i, line := range lines {
		var at int
		var digest string
		var dispatched uint64
		if _, err := fmt.Sscan(line, &at, &digest, &dispatched); err != nil || at != i {
			t.Fatalf("transcript %d: bad line %q (%v)", i, line, err)
		}
		sc := newAppScript(rng)
		var a *arena
		if i%2 == 1 {
			a = &warm
		}
		if i%20 == 1 {
			// A MIG fleet on the slab between two warm scripts.
			m := playWarmAs(t, newMIGScript(migs), &warm)
			set("warm/mig", m.warm && m.carves > 0)
			set("mig/cut", m.carves > 0 && m.finished < m.launched)
		}
		got := playScript(t, sc, a)
		if d := got.digest(); d != digest || got.events > dispatched {
			t.Fatalf("script %d (warm %v, %v %s/%s, shards %d, guard %v, %d nodes, faults %v, call timeout %v, streams %+v): digest %s after %d activations, want %s after at most %d",
				i, a != nil, sc.cfg.Mode, sc.cfg.Balance, sc.cfg.DevPolicy, sc.cfg.Shards, sc.cfg.BlockOnOOM, len(sc.cfg.Nodes),
				sc.cfg.Faults.Faults, sc.cfg.CallTimeout, sc.streams, d, got.events, digest, dispatched)
		}
		for st, n := range got.styles {
			set(fmt.Sprint(sc.cfg.Mode, "/", workload.Style(st)), n > 0)
			set(fmt.Sprint("sharded/", workload.Style(st)), n > 0 && sc.cfg.Shards > 0)
		}
		set("failed", bytes.Contains(got.log, []byte(`"err":`)))
		set("stuck", slices.ContainsFunc(got.blocked, func(name string) bool { return strings.HasPrefix(name, "app-") }))
		set("reused", got.reused)
		set(fmt.Sprint("warm/", sc.cfg.Mode), got.warm)
		retries, failovers := bytes.Count(got.jsonl, []byte(`"kind":"retry"`)), bytes.Count(got.jsonl, []byte(`"kind":"failover"`))
		set("retransmit", retries > failovers)
		set("failover", failovers > 0 && got.finished > 0)
		set("lost", bytes.Contains(got.log, []byte(cuda.ErrBackendLost.Error())))
	}
	t.Logf("%d scripts reach %v", len(lines), reach)
	want := []string{"failed", "stuck", "reused"}
	if !testing.Short() {
		want = append(want, "sharded/multithread", "retransmit", "failover", "lost", "warm/mig", "mig/cut")
		for _, m := range []Mode{ModeStrings, ModeRain, ModeCUDA} {
			want = append(want, fmt.Sprint("warm/", m))
			for st := range 3 {
				want = append(want, fmt.Sprint(m, "/", workload.Style(st)))
			}
		}
	}
	for _, w := range want {
		if !reach[w] {
			t.Errorf("the scripts no longer reach %s", w)
		}
	}
}

// FuzzFrontendSteps deals a MIG script and two others from the fuzzer's bytes
// and plays them one after another on one arena's slab, the MIG script twice,
// the second time cut off halfway, each of them also on a fresh cluster: what
// a run left behind — sessions, frontends, processes, connections, devices
// with their contexts and ops, packers and schedulers, the mapper's tables
// with their carved slice rows, live ones a horizon cut off included — must
// not reach the next, which leaves the request log and trace its fresh run
// leaves.
func FuzzFrontendSteps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { playWarm(t, data) })
}

// playWarm is FuzzFrontendSteps's body: it deals the scripts from data, plays
// them, and returns how the second script went and how the last went warm.
func playWarm(t *testing.T, data []byte) (first appScript, firstRun, warm scriptRun) {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	sc, other := newAppScript(rng), newAppScript(rng)
	var a arena
	mig := newMIGScript(rng)
	mig.horizon = playWarmAs(t, mig, &a).end / 2
	playWarmAs(t, mig, &a)
	return other, playWarmAs(t, other, &a), playWarmAs(t, sc, &a)
}

// playWarmAs plays sc on a fresh cluster and then on one a lends, and fails
// unless the two leave the same request log and trace.
func playWarmAs(t *testing.T, sc appScript, a *arena) scriptRun {
	t.Helper()
	want, got := playScript(t, sc, nil), playScript(t, sc, a)
	if !bytes.Equal(got.log, want.log) || !bytes.Equal(got.jsonl, want.jsonl) {
		t.Fatalf("%v %s/%s, %d nodes, faults %v, horizon %v, streams %+v: a warm run differs from a fresh one's\nwarm  %s\nfresh %s",
			sc.cfg.Mode, sc.cfg.Balance, sc.cfg.DevPolicy, len(sc.cfg.Nodes), sc.cfg.Faults.Faults, sc.horizon, sc.streams, got.log, want.log)
	}
	return got
}

// TestFrontendStepsSeeds holds FuzzFrontendSteps's committed corpus to what
// each seed is kept for: seed-rain-cut and seed-cuda-cut play a Rain and a
// CUDA script cut off at its horizon with applications live before a warm
// run, and seed-kill one with a KillGPU fault.
func TestFrontendStepsSeeds(t *testing.T) {
	cut := func(m Mode) func(appScript, scriptRun) bool {
		return func(sc appScript, r scriptRun) bool { return sc.cfg.Mode == m && r.finished < r.launched }
	}
	for _, c := range []struct {
		name string
		ok   func(appScript, scriptRun) bool
	}{
		{"seed-rain-cut", cut(ModeRain)},
		{"seed-cuda-cut", cut(ModeCUDA)},
		{"seed-kill", func(sc appScript, _ scriptRun) bool {
			return slices.ContainsFunc(sc.cfg.Faults.Faults, func(f faults.Fault) bool { return f.Kind == faults.KillGPU })
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw, err := os.ReadFile("testdata/fuzz/FuzzFrontendSteps/" + c.name)
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
			data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if !ok || err != nil {
				t.Fatalf("not a one-[]byte corpus file: %v", err)
			}
			first, firstRun, warm := playWarm(t, []byte(data))
			if !c.ok(first, firstRun) || !warm.warm {
				t.Errorf("the seed no longer plays what it is kept for: first %v, %d of %d finished, faults %v; warm %v",
					first.cfg.Mode, firstRun.finished, firstRun.launched, first.cfg.Faults.Faults, warm.warm)
			}
		})
	}
}
