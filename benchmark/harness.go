package main

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// metricDef names one metric, its unit and which direction is better. The
// regression bounds live in BENCHMARK.json; the smoke test holds the file and
// these tables together.
type metricDef struct{ name, unit, better string }

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what -trace 0 reports, on every workload. Host-time
// metrics come from the timed passes; sim_* metrics are simulated results
// and repeat exactly for a fixed seed.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower},
	{"requests_per_s", "1/s", higher},
	{"allocs_per_request", "count", lower},
	{"peak_rss_mb", "MB", lower},
	{"sim_p99_latency_s", "s", lower},
	{"sim_weighted_speedup", "ratio", higher},
	{"sim_jain_fairness", "ratio", higher},
}

// perLayerMetrics are what -trace 1 reports, on every workload; a layer a
// workload does not run reads 0.
var perLayerMetrics = buildPerLayerMetrics()

func buildPerLayerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	// 1. Host share of the CPU-profiled passes.
	for _, l := range hostLayers {
		add("%", lower, l+".host_pct")
	}
	add("%", lower, "other.host_pct", "runtime.gc_pct", "runtime.other_pct", "sim.self_pct")
	// 2. Counts and occupancy from public accessors, one full untraced pass.
	add("count", lower, "sim.events")
	add("ns", lower, "sim.ns_per_event")
	add("count", higher, "sim.ff_jumps")
	add("ratio", higher, "sim.ff_skip_ratio")
	add("count", lower, "shard.windows")
	add("count", higher, "shard.solo_runs")
	add("count", lower, "shard.solo_stops", "shard.messages")
	add("ratio", higher, "shard.par_speedup")
	add("count", higher, "gpu.kernels_done", "gpu.copies_done")
	add("count", lower, "gpu.ctx_switches")
	add("ratio", higher, "gpu.compute_busy_frac", "gpu.copy_busy_frac")
	add("count", higher, "balancer.selections", "balancer.feedbacks")
	add("count", lower, "balancer.spills")
	add("count", higher, "cluster.born", "cluster.placed")
	add("count", lower, "cluster.parked", "cluster.rejected", "cluster.conflicts", "cluster.refreshes")
	add("ratio", higher, "cluster.commit_success_ratio", "cluster.util_mean", "cluster.par_speedup")
	add("s", lower, "cluster.sim_admission_wait_s")
	add("count", higher, "sweep.sims")
	add("ratio", higher, "sweep.par_speedup")
	add("s", lower, "experiments.fig9_s", "experiments.fig10_s", "experiments.fig11_s",
		"experiments.fig12_s", "experiments.fig14_s")
	add("ratio", higher, "experiments.sim_fig9_speedup")
	add("%", lower, "experiments.paper_err_pct")
	add("count", lower, "experiments.order_violations", "runtime.gc_cycles")
	// 3. Simulated self time per span kind, from the traced twin.
	add("s", lower, "interpose.sim_self_s", "balancer.sim_select_s", "packer.sim_self_s",
		"devsched.sim_wait_s", "gpu.sim_op_s", "core.sim_request_s")
	add("count", lower, "interpose.calls", "devsched.wakes", "devsched.sleeps")
	add("count", higher, "trace.spans")
	add("%", lower, "trace.overhead_pct")
	// 4. Layer drivers.
	add("ns", lower, "sim.dispatch_ns", "sim.handoff_ns", "sim.reset_ns")
	add("count", lower, "sim.allocs_per_event")
	add("ns", lower, "shard.window_ns", "gpu.op_ns", "gpu.op_ns_shared8", "cuda.call_ns", "packer.exec_ns",
		"devsched.turn_ns.TFS", "devsched.turn_ns.LAS", "devsched.turn_ns.PS")
	for _, p := range []string{"GRR", "GMin", "GWtMin", "RTF", "GUF", "DTF", "MBF", "Frag"} {
		add("ns", lower, "balancer.select_ns."+p)
	}
	add("ns", lower, "rpcproto.codec_roundtrip_ns")
	add("count", lower, "rpcproto.codec_allocs")
	add("ns", lower, "rpcproto.conn_roundtrip_ns")
	add("1/s", higher, "remoting.tcp_calls_per_s")
	add("us", lower, "remoting.tcp_rtt_p50_us", "remoting.tcp_rtt_p99_us")
	add("count", lower, "remoting.tcp_failed")
	add("us", lower, "core.new_us.1node", "core.new_us.4node", "cluster.place_us_per_tenant")
	add("ns", lower, "workload.births_ns_per_tenant", "workload.arrivals_ns_per_request",
		"trace.span_ns", "trace.disabled_span_ns")
	add("MB/s", higher, "trace.jsonl_mb_per_s")
	return defs
}

// runConfig sizes one run. The command line uses full size; the smoke test
// shrinks everything.
type runConfig struct {
	seed         int64
	frac         float64 // fraction of each workload's size constant
	seconds      float64 // measuring time
	minPasses    int     // fewest timed passes the medians are taken over
	setups       int     // how many times set-up is repeated for its median
	overheadReps int     // traced/untraced twin pairs behind trace.overhead_pct
	driverFrac   float64 // fraction of the layer drivers' loop counts
	spanPath     string  // where the traced run writes its host spans ("" = nowhere)
}

// runResult is what one run measured.
type runResult struct {
	attempted, failed int
	digest            string
	metrics           map[string]float64
	notes             []string // context printed beside the metrics
}

// median is the nearest-rank median (the lower middle of an even count).
func median(xs []float64) float64 { return metrics.Percentile(xs, 0.5) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// warmSeed seeds the warm-up pass whatever -seed is: at a tenth of the size a
// handful of heavy-tailed tenants or one pair of applications decide how much
// work the pass holds, and set-up time would follow the seed, not the program.
const warmSeed = 1

// setUp generates the workload's inputs and warms the process up with one
// pass at a tenth of the size. It is what setup_s times.
func setUp(w workloadDef, cfg runConfig) (instance, error) {
	warm, err := w.setup(warmSeed, cfg.frac/10)
	if err != nil {
		return nil, err
	}
	if _, err := warm.pass(passOpts{workers: 1}); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return w.setup(cfg.seed, cfg.frac)
}

// checkPass applies the per-pass correctness checks that need the run's
// context: same simulated output as the first pass, and the figure-order
// check, which holds at seed 1 and is only reported at other seeds.
func checkPass(out, first *passOut, cfg runConfig, res *runResult) error {
	if out.digest != first.digest || out.attempted != first.attempted || out.failed != first.failed {
		return fmt.Errorf("passes disagree: digest %s (%d/%d failed) vs %s (%d/%d failed)",
			out.digest, out.failed, out.attempted, first.digest, first.failed, first.attempted)
	}
	if out == first && len(out.warnings) > 0 {
		if cfg.seed == 1 && cfg.frac == 1 {
			return fmt.Errorf("figure order violated at seed 1: %s", strings.Join(out.warnings, "; "))
		}
		for _, wmsg := range out.warnings {
			res.notes = append(res.notes, "warning: "+wmsg)
		}
	}
	return nil
}

// runEndToEnd is the -trace 0 protocol: set up (several times, for a
// median), then timed passes with tracing and profiling off until
// cfg.seconds have been measured.
func runEndToEnd(w workloadDef, cfg runConfig) (*runResult, error) {
	var in instance
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		sw := parallel.StartStopwatch()
		var err error
		if in, err = setUp(w, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, sw.Seconds())
	}

	res := &runResult{metrics: make(map[string]float64)}
	var first *passOut
	var times []float64
	var allocs uint64
	var measured, rss float64
	for len(times) < cfg.minPasses || measured < cfg.seconds {
		runtime.GC()
		m0 := mallocs()
		sw := parallel.StartStopwatch()
		out, err := in.pass(passOpts{workers: 1})
		t := sw.Seconds()
		allocs += mallocs() - m0
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = out
		}
		if err := checkPass(out, first, cfg, res); err != nil {
			return nil, err
		}
		times = append(times, t)
		measured += t
		if len(times) == cfg.minPasses {
			// Read after a fixed number of passes, not at exit: every pass
			// leaves its cluster reachable from the daemon coroutines it
			// abandons, so the high-water mark grows with the pass count,
			// and that follows the machine's speed.
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}

	res.attempted, res.failed, res.digest = first.attempted, first.failed, first.digest
	finished := float64(first.attempted - first.failed)
	m := res.metrics
	m["setup_s"] = median(setups)
	m["requests_per_s"] = finished / median(times)
	m["allocs_per_request"] = float64(allocs) / (float64(len(times)) * float64(first.attempted))
	m["peak_rss_mb"] = rss
	for _, name := range []string{"sim_p99_latency_s", "sim_weighted_speedup", "sim_jain_fairness"} {
		m[name] = first.stats[name]
	}
	res.notes = append(res.notes,
		fmt.Sprintf("timed passes: K=%d median %.4fs min %.4fs max %.4fs; set-ups: %d median %.4fs",
			len(times), median(times), slices.Min(times), slices.Max(times), len(setups), median(setups)),
		fmt.Sprintf("simulated latency: p50 %gs p99 %gs p999 %gs over %.0f requests",
			first.stats["sim_p50_latency_s"], first.stats["sim_p99_latency_s"],
			first.stats["sim_p999_latency_s"], first.stats["sim_latency_samples"]),
		fmt.Sprintf("ops: attempted %d failed %d", first.attempted, first.failed))
	return res, nil
}

// timedPass runs one pass under a stopwatch.
func timedPass(in instance, o passOpts) (*passOut, float64, error) {
	runtime.GC()
	sw := parallel.StartStopwatch()
	out, err := in.pass(o)
	return out, sw.Seconds(), err
}

// runTraced is the -trace 1 protocol. Everything here is per-layer: the
// traced twin and its untraced reference at a tenth of the size, one full
// pass with the harness's host spans and the layers' counters, one pass at
// nproc workers, CPU-profiled passes for cfg.seconds/2, and the layer
// drivers.
func runTraced(w workloadDef, cfg runConfig) (*runResult, error) {
	res := &runResult{metrics: make(map[string]float64)}
	m := res.metrics
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	spans := newSpanLog()

	endSetup := spans.begin("setup")
	in, err := setUp(w, cfg)
	var twin instance
	if err == nil {
		twin, err = w.setup(cfg.seed, cfg.frac/10)
	}
	endSetup()
	if err != nil {
		return nil, err
	}

	// Traced twin against an untraced pass of the same size, alternating.
	var plain, traced []float64
	var sets []*trace.Set
	endTwin := spans.begin("traced_twin")
	for i := 0; i < cfg.overheadReps; i++ {
		_, tp, err := timedPass(twin, passOpts{workers: 1})
		if err != nil {
			return nil, err
		}
		out, tt, err := timedPass(twin, passOpts{workers: 1, traced: true})
		if err != nil {
			return nil, err
		}
		plain, traced, sets = append(plain, tp), append(traced, tt), out.traces
	}
	endTwin()
	maps.Copy(m, traceStats(sets))
	m["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)

	// One full pass, sequential, with host spans and the layers' counters.
	gc0 := gcCycles()
	endPass := spans.begin("pass_1worker")
	first, t1, err := timedPass(in, passOpts{workers: 1, spans: spans})
	endPass()
	if err != nil {
		return nil, err
	}
	if err := checkPass(first, first, cfg, res); err != nil {
		return nil, err
	}
	m["runtime.gc_cycles"] = float64(gcCycles() - gc0)
	for _, d := range perLayerMetrics {
		if v, ok := first.stats[d.name]; ok {
			m[d.name] = v
		}
	}
	if ev := first.stats["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = t1 * 1e9 / ev
	}
	for _, fig := range []string{"fig9", "fig10", "fig11", "fig12", "fig14"} {
		m["experiments."+fig+"_s"] = spans.seconds("experiments." + fig)
	}

	// The same pass at nproc workers; advisory below four cores.
	if par := w.parallelMetric; par != "" {
		endPar := spans.begin("pass_nproc")
		out, tn, err := timedPass(in, passOpts{workers: runtime.GOMAXPROCS(0)})
		endPar()
		if err != nil {
			return nil, err
		}
		if err := checkPass(out, first, cfg, res); err != nil {
			return nil, fmt.Errorf("at %d workers: %w", runtime.GOMAXPROCS(0), err)
		}
		m[par] = t1 / tn
	}

	// CPU-profiled passes.
	var prof bytes.Buffer
	endProf := spans.begin("profiled_passes")
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	sw := parallel.StartStopwatch()
	for once := true; once || sw.Seconds() < cfg.seconds/2; once = false {
		if _, err := in.pass(passOpts{workers: 1}); err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
	}
	pprof.StopCPUProfile()
	endProf()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := hostShares(samples)
	for _, l := range hostLayers {
		m[l+".host_pct"] = shares[l]
	}
	m["other.host_pct"] = shares["other"]
	m["runtime.gc_pct"] = shares[chargeGC]
	m["runtime.other_pct"] = shares[chargeRuntime]
	m["sim.self_pct"] = shares["sim.self"]

	endDrivers := spans.begin("layer_drivers")
	drv, err := runDrivers(cfg.seed, cfg.driverFrac, spans)
	endDrivers()
	if err != nil {
		return nil, err
	}
	maps.Copy(m, drv)

	if cfg.spanPath != "" {
		if err := spans.write(cfg.spanPath); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "host spans written to "+cfg.spanPath)
	}
	res.attempted, res.failed, res.digest = first.attempted, first.failed, first.digest
	res.notes = append(res.notes, fmt.Sprintf("profile: %d stack samples; traced twin: %d spans, %.4fs traced vs %.4fs untraced",
		len(samples), int(m["trace.spans"]), median(traced), median(plain)))
	return res, nil
}

func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
