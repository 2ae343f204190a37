package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// smallSuite keeps test runtime bounded: a representative subset of pairs
// (compute-heavy, transfer-heavy, light) and short streams.
func smallSuite() *Suite {
	ps := workload.Pairs()
	return NewSuite(Options{
		Seed:     1,
		Requests: 8,
		Pairs:    []workload.Pair{ps[0], ps[1], ps[16], ps[23]}, // A, B, Q, X
		Apps: []workload.Kind{workload.DXTC, workload.Scan,
			workload.MonteCarlo, workload.Gaussian},
	})
}

func avgRow(t *testing.T, tab *metrics.Table, name string) float64 {
	t.Helper()
	row := tab.Row(name)
	if row == nil {
		t.Fatalf("series %q missing from %s", name, tab.Title)
	}
	return row[len(row)-1] // AVG column
}

func TestTableIMatchesCalibration(t *testing.T) {
	s := smallSuite()
	tab := s.TableI()
	for i, k := range s.opt.Apps {
		spec := workload.Specs[k]
		gotGPU := tab.Row("GPU Time %")[i]
		if math.Abs(gotGPU-spec.GPUPct) > 5 {
			t.Errorf("%v GPU%% = %.2f, want ≈%.2f", k, gotGPU, spec.GPUPct)
		}
		gotRT := tab.Row("Runtime(s)")[i]
		if math.Abs(gotRT-spec.SoloRuntime.Seconds())/spec.SoloRuntime.Seconds() > 0.05 {
			t.Errorf("%v runtime = %.2fs, want ≈%v", k, gotRT, spec.SoloRuntime)
		}
	}
	if !strings.Contains(tab.Format(), "Table I") {
		t.Error("format lost the title")
	}
}

func TestSuiteSingleApp(t *testing.T) {
	s := NewSuite(Options{
		Seed: 1, Requests: 4,
		Apps: []workload.Kind{workload.Gaussian},
	})
	tab := s.TableI()
	if tab.Row("GPU Time %") == nil {
		t.Fatal("TableI missing rows")
	}
}

func TestFig1UtilizationClasses(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Requests: 4,
		Apps: []workload.Kind{workload.DXTC, workload.Gaussian}})
	tab := s.Fig1()
	dcCompute := tab.Row("Compute %")[0]
	gaCompute := tab.Row("Compute %")[1]
	if dcCompute <= gaCompute {
		t.Fatalf("DC compute util %.1f%% should exceed GA %.1f%%", dcCompute, gaCompute)
	}
	if dcCompute < 30 {
		t.Fatalf("DC compute util %.1f%% implausibly low", dcCompute)
	}
	if gaCompute > 5 {
		t.Fatalf("GA compute util %.1f%% implausibly high", gaCompute)
	}
}

func TestFig2ConcurrentBeatsSequential(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Requests: 5})
	r := s.Fig2()
	if r.ConcMakespan >= r.SeqMakespan {
		t.Fatalf("concurrent makespan %v not below sequential %v", r.ConcMakespan, r.SeqMakespan)
	}
	// Context packing removes the driver's context-switch stalls: the
	// sequential timeline is riddled with "glitches", the concurrent one
	// nearly free of them (the paper's Figure 2 contrast).
	if r.ConcGlitches*10 >= r.SeqGlitches {
		t.Fatalf("glitches: concurrent %d vs sequential %d — packing lost its effect",
			r.ConcGlitches, r.SeqGlitches)
	}
	out := r.Format(60)
	if !strings.Contains(out, "sequential") || !strings.Contains(out, "concurrent") {
		t.Fatalf("Format output malformed:\n%s", out)
	}
}

func TestFig9Orderings(t *testing.T) {
	s := smallSuite()
	tab := s.Fig9()
	if len(tab.Labels) != len(s.opt.Apps)+1 {
		t.Fatalf("labels = %v", tab.Labels)
	}
	// Every policy must on average beat the CUDA runtime, and each Strings
	// variant must beat its Rain counterpart.
	for _, name := range []string{"GRR", "GMin", "GWtMin"} {
		rain := avgRow(t, tab, name+"-Rain")
		str := avgRow(t, tab, name+"-Strings")
		if rain <= 1.0 {
			t.Errorf("%s-Rain avg %.2f ≤ 1 vs CUDA", name, rain)
		}
		if str <= rain {
			t.Errorf("%s: Strings %.2f not above Rain %.2f", name, str, rain)
		}
	}
}

// TestFig9BaselineOutgrowsMemory: twenty Monte Carlo requests on their
// programmed GPU need more memory than it has, so the bare-CUDA baseline waits
// for it instead of failing the figure with an out-of-memory error.
func TestFig9BaselineOutgrowsMemory(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Requests: 20, Apps: []workload.Kind{workload.MonteCarlo}})
	tab := s.Fig9() // the suite panics on any application error
	if v := avgRow(t, tab, "GMin-Strings"); v <= 1 {
		t.Errorf("GMin-Strings speedup %.2f over the blocked CUDA baseline, want above 1", v)
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	s := smallSuite()
	tab := s.Fig10()
	grrRain := avgRow(t, tab, "GRR-Rain")
	grrStr := avgRow(t, tab, "GRR-Strings")
	gminStr := avgRow(t, tab, "GMin-Strings")
	if grrRain <= 1 {
		t.Errorf("GRR-Rain avg %.2f; supernode sharing should beat 1-node", grrRain)
	}
	if grrStr <= grrRain {
		t.Errorf("GRR-Strings %.2f not above GRR-Rain %.2f", grrStr, grrRain)
	}
	if gminStr <= grrRain {
		t.Errorf("GMin-Strings %.2f not above GRR-Rain %.2f", gminStr, grrRain)
	}
}

func TestFig11FairnessOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short (race gate)")
	}
	ps := workload.Pairs()
	s := NewSuite(Options{Seed: 1, Requests: 6,
		Pairs: []workload.Pair{ps[1], ps[13]}}) // DC-MC, MM-MC: contended mixes
	tab := s.Fig11()
	cuda := avgRow(t, tab, "CUDA")
	strTFS := avgRow(t, tab, "TFS-Strings")
	if strTFS <= cuda {
		t.Fatalf("TFS-Strings fairness %.3f not above CUDA %.3f", strTFS, cuda)
	}
	if strTFS < 0.9 {
		t.Fatalf("TFS-Strings fairness %.3f too low", strTFS)
	}
	for _, v := range tab.Row("TFS-Rain") {
		if v <= 0 || v > 1.0001 {
			t.Fatalf("Jain value %v out of range", v)
		}
	}
}

func TestFig12And13Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short (race gate)")
	}
	s := smallSuite()
	f12 := s.Fig12()
	lasRain := avgRow(t, f12, "GWtMinLAS-Rain")
	lasStr := avgRow(t, f12, "GWtMinLAS-Strings")
	psStr := avgRow(t, f12, "GWtMinPS-Strings")
	if lasStr <= lasRain {
		t.Errorf("LAS-Strings %.2f not above LAS-Rain %.2f", lasStr, lasRain)
	}
	if psStr <= lasRain {
		t.Errorf("PS-Strings %.2f not above LAS-Rain %.2f", psStr, lasRain)
	}
	// PS trades ≤ a small throughput margin against LAS (paper: within 4%).
	if math.Abs(psStr-lasStr)/lasStr > 0.25 {
		t.Errorf("PS %.2f and LAS %.2f diverge too much", psStr, lasStr)
	}
	f13 := s.Fig13()
	if v := avgRow(t, f13, "LAS-Strings"); v <= 1 {
		t.Errorf("Fig13 LAS-Strings %.2f should exceed the shared-GRR baseline", v)
	}
	if v := avgRow(t, f13, "LAS-Rain"); v <= 0.8 {
		t.Errorf("Fig13 LAS-Rain %.2f implausible", v)
	}
}

func TestFig14And15FeedbackWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short (race gate)")
	}
	s := smallSuite()
	f10 := s.Fig10()
	f14 := s.Fig14()
	f15 := s.Fig15()
	gwtStr := avgRow(t, f10, "GWtMin-Strings")
	for _, name := range []string{"RTF-Strings", "GUF-Strings"} {
		if v := avgRow(t, f14, name); v < gwtStr*0.93 {
			t.Errorf("%s %.2f far below GWtMin-Strings %.2f", name, v, gwtStr)
		}
	}
	if rtf, rain := avgRow(t, f14, "RTF-Strings"), avgRow(t, f14, "RTF-Rain"); rtf <= rain {
		t.Errorf("RTF-Strings %.2f not above RTF-Rain %.2f", rtf, rain)
	}
	for _, name := range []string{"DTF-Strings", "MBF-Strings"} {
		if v := avgRow(t, f15, name); v <= 1 {
			t.Errorf("%s %.2f should exceed the 1-node baseline", name, v)
		}
	}
}

// TestSuiteCachingSharesBaselines: the suite memoizes runs under their
// scenario text, so a figure re-reads every run another figure made. After
// Fig 10, Fig 13 adds only its three policy runs a pair (its 4-GPU GRR
// baseline is Fig 10's GRR-Rain cell), and Fig 12 then adds none (its 1-node
// baselines are Fig 10's, its policy runs Fig 13's).
func TestSuiteCachingSharesBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short (race gate)")
	}
	s := smallSuite()
	s.Fig10()
	for _, fig := range []struct {
		name  string
		run   func() *metrics.Table
		extra int
	}{
		{"Fig13", s.Fig13, 3 * len(s.opt.Pairs)},
		{"Fig12", s.Fig12, 0},
		{"Fig13 again", s.Fig13, 0},
	} {
		runs := s.Runs
		fig.run()
		if extra := s.Runs - runs; extra != fig.extra {
			t.Errorf("%s added %d runs, want %d (a shared run missed the cache?)", fig.name, extra, fig.extra)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short (race gate)")
	}
	ps := workload.Pairs()
	s := NewSuite(Options{Seed: 1, Requests: 5, Pairs: ps[:1]})
	for _, tab := range []*metrics.Table{
		s.AblationContextSwitch(),
		s.AblationCopyEngines(),
		s.AblationRemoteBandwidth(),
		s.AblationLASDecay(),
		s.AblationAccountingLag(),
		s.AblationArbiter(),
	} {
		if len(tab.Series) == 0 || len(tab.Labels) == 0 {
			t.Fatalf("ablation %q empty", tab.Title)
		}
		for _, ser := range tab.Series {
			for _, v := range ser.Values {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("ablation %q has bad value %v", tab.Title, v)
				}
			}
		}
	}
}

func TestAblationContextSwitchShape(t *testing.T) {
	ps := workload.Pairs()
	s := NewSuite(Options{Seed: 1, Requests: 6, Pairs: ps[:1]})
	tab := s.AblationContextSwitch()
	rain := tab.Row("Rain")
	strs := tab.Row("Strings")
	// Rain degrades with switch cost; Strings is flat (no switches).
	if rain[len(rain)-1] <= rain[0] {
		t.Errorf("Rain completion %.2f..%.2f not increasing with switch cost", rain[0], rain[len(rain)-1])
	}
	spread := math.Abs(strs[len(strs)-1]-strs[0]) / strs[0]
	if spread > 0.02 {
		t.Errorf("Strings varies %.1f%% with switch cost; packing should isolate it", 100*spread)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Requests <= 0 || o.LambdaFactor <= 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
	if len(o.Pairs) != 24 || len(o.Apps) != 10 {
		t.Fatalf("defaults: %d pairs, %d apps", len(o.Pairs), len(o.Apps))
	}
	if o.longRequests() >= o.Requests {
		t.Fatal("long streams should be shorter than short streams")
	}
}

// TestAblationAppStyleOrdering runs the style ablation at the CI scale and at
// strings-bench's default of 12 requests a stream, where the bare runtime has
// nine MC applications on the 1 GiB Quadro 2000 at once and the ninth
// pipelined one (two 64 MiB buffers) has to wait for memory: without the
// ablation's blocking cudaMalloc it ran the device out (Suite.run panics on an
// application error).
func TestAblationAppStyleOrdering(t *testing.T) {
	for _, requests := range []int{6, 12} {
		s := NewSuite(Options{Seed: 1, Requests: requests})
		tab := s.AblationAppStyle()
		for i := range tab.Labels {
			cudaSync := tab.Row("CUDA/sync")[i]
			cudaPipe := tab.Row("CUDA/pipelined")[i]
			strSync := tab.Row("Strings/sync")[i]
			strPipe := tab.Row("Strings/pipelined")[i]
			// Hand pipelining never hurts, and an unmodified app under Strings
			// beats even the hand-tuned app on the bare runtime.
			if cudaPipe > cudaSync*1.02 || strPipe > strSync*1.02 {
				t.Errorf("%d requests, %s: pipelining hurt (%v > %v or %v > %v)",
					requests, tab.Labels[i], cudaPipe, cudaSync, strPipe, strSync)
			}
			if strSync >= cudaPipe {
				t.Errorf("%d requests, %s: Strings/sync %.1fs not below CUDA/pipelined %.1fs",
					requests, tab.Labels[i], strSync, cudaPipe)
			}
		}
	}
}

func TestParallelWorkersDeterministic(t *testing.T) {
	run := func(workers int) []float64 {
		ps := workload.Pairs()
		s := NewSuite(Options{Seed: 1, Requests: 6, Workers: workers, Pairs: ps[:3]})
		return s.Fig10().Row("GWtMin-Strings")
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed results: %v vs %v", a, b)
		}
	}
}

// TestSweepParallelEqualsSequential is the engine's end-to-end golden
// property on real experiment grids: whole figure tables — including a
// multi-replication run exercising the FoldSeed replication seeds — are
// deeply equal at Workers=1 (the sequential reference) and Workers=8 (an
// oversubscribed pool on any core count).
func TestSweepParallelEqualsSequential(t *testing.T) {
	ps := workload.Pairs()
	build := func(workers int) []*metrics.Table {
		s := NewSuite(Options{
			Seed:     1,
			Requests: 4,
			Seeds:    2,
			Workers:  workers,
			Pairs:    []workload.Pair{ps[1], ps[16]},
			Apps:     []workload.Kind{workload.MonteCarlo, workload.Gaussian},
		})
		return []*metrics.Table{s.Fig9(), s.Fig11(), s.Fig13(), s.Fig15()}
	}
	seq := build(1)
	par := build(8)
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: parallel table diverged from sequential", seq[i].Title)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Requests: 4,
		Apps: []workload.Kind{workload.Gaussian}})
	csv := s.TableI().CSV()
	if !strings.HasPrefix(csv, "label,") || !strings.Contains(csv, "GA,") {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
	if strings.Count(csv, "\n") != 2 {
		t.Fatalf("CSV rows = %d lines:\n%s", strings.Count(csv, "\n"), csv)
	}
}

func TestHeadlineTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short (race gate)")
	}
	s := smallSuite()
	tab := s.Headline()
	if len(tab.Labels) != 9 {
		t.Fatalf("claims = %d", len(tab.Labels))
	}
	paper := tab.Row("Paper")
	meas := tab.Row("Measured")
	ratio := tab.Row("Meas/Paper")
	for i := range tab.Labels {
		if paper[i] <= 0 || meas[i] <= 0 {
			t.Fatalf("claim %q degenerate: paper %v measured %v", tab.Labels[i], paper[i], meas[i])
		}
		if got := meas[i] / paper[i]; math.Abs(got-ratio[i]) > 1e-9 {
			t.Fatalf("ratio mismatch for %q", tab.Labels[i])
		}
	}
}

func TestSeedsPoolReplications(t *testing.T) {
	ps := workload.Pairs()
	one := NewSuite(Options{Seed: 1, Requests: 5, Pairs: ps[:1]})
	three := NewSuite(Options{Seed: 1, Requests: 5, Seeds: 3, Pairs: ps[:1]})
	one.Fig10()
	three.Fig10()
	if three.Runs != 3*one.Runs {
		t.Fatalf("runs %d vs %d; seeds not replicated", three.Runs, one.Runs)
	}
	// Pooled values are in the same ballpark but generally not identical.
	a := one.Fig10().Row("GRR-Strings")[0]
	b := three.Fig10().Row("GRR-Strings")[0]
	if b <= 0 || a <= 0 {
		t.Fatalf("degenerate values %v, %v", a, b)
	}
}
