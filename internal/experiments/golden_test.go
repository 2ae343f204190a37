package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// fig9GoldenOpts is the fixed scenario every Fig 9 golden variant runs.
func fig9GoldenOpts() Options {
	return Options{
		Seed:     1,
		Requests: 8,
		Apps: []workload.Kind{
			workload.DXTC, workload.Scan,
			workload.MonteCarlo, workload.BlackScholes,
		},
	}
}

// fig9Golden pins one full Figure 9 run to the exact values produced by the
// original container/heap kernel and allocating codec. Columns: DC, SC, MC,
// BS, AVG. Captured at commit time with the seed kernel and reproduced
// unchanged by every rewrite since.
var fig9Golden = map[string][]float64{
	"GRR-Rain":       {3.40688816322, 1.07066901396, 2.78011414529, 2.1429761231, 2.35016186139},
	"GMin-Rain":      {3.41951239164, 1.07066901396, 2.78011414529, 2.1429761231, 2.35331791849},
	"GWtMin-Rain":    {4.1171094691, 1.09240530087, 2.84555966996, 2.31877604943, 2.59346262234},
	"GRR-Strings":    {3.56703409811, 1.07052167916, 4.23448885591, 1.99645074833, 2.71712384538},
	"GMin-Strings":   {3.58208588014, 1.07052167916, 4.36463701068, 1.99645074833, 2.75342382958},
	"GWtMin-Strings": {4.27048423888, 1.0950806931, 4.71467875446, 2.17746970273, 3.06442834729},
}

// checkGolden compares a table against pinned values, series by series.
func checkGolden(t *testing.T, variant string, tab *metrics.Table, golden map[string][]float64) {
	t.Helper()
	const tol = 1e-9 // golden values carry 12 significant digits
	for series, want := range golden {
		row := tab.Row(series)
		if row == nil {
			t.Errorf("%s: series %q missing from Fig 9", variant, series)
			continue
		}
		if len(row) != len(want) {
			t.Errorf("%s: series %q has %d columns, want %d", variant, series, len(row), len(want))
			continue
		}
		for i, w := range want {
			if math.Abs(row[i]-w) > tol*math.Abs(w) {
				t.Errorf("%s: %s[%s] = %.12g, want %.12g (dispatch order drifted)",
					variant, series, tab.Labels[i], row[i], w)
			}
		}
	}
}

// TestFig9Golden runs the pinned Figure 9 scenario through every execution
// path the sweep engine adds and demands bit-identical results from all of
// them: the fast-path kernel, the zero-copy wire path, recycled kernels
// (the arena Reset path), shared arrival traces, and the parallel worker
// pool must each be drop-ins — any drift in these numbers means the
// (time, sequence) dispatch order changed.
func TestFig9Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig 9 run")
	}
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		// The default path: kernels recycled through core's arena,
		// traces shared, workers at GOMAXPROCS.
		{"reused-kernels", func(*Options) {}},
		// Sequential reference execution.
		{"sequential", func(o *Options) { o.Workers = 1 }},
		// Oversubscribed pool (more workers than cores) to vary completion
		// interleaving.
		{"parallel-8", func(o *Options) { o.Workers = 8 }},
	}
	tables := make([]*metrics.Table, len(variants))
	for i, v := range variants {
		opt := fig9GoldenOpts()
		v.mutate(&opt)
		tables[i] = NewSuite(opt).Fig9()
		checkGolden(t, v.name, tables[i], fig9Golden)
	}
	for i := 1; i < len(variants); i++ {
		if !reflect.DeepEqual(tables[i], tables[0]) {
			t.Errorf("variant %s produced a table not deeply equal to %s",
				variants[i].name, variants[0].name)
		}
	}
}

// The application-style ablation and the degradation study at strings-bench's
// default options (seed 1, 12 requests a stream, λ factor 0.6, every pair):
// the only tables whose pipelined and recovering requests no other golden
// reaches.
var (
	appStyleGolden = map[string][]float64{
		"CUDA/sync":         {86.785327, 73.619349},
		"CUDA/pipelined":    {72.032554, 62.883223},
		"Strings/sync":      {15.010212, 27.404272},
		"Strings/pipelined": {8.88539, 17.661959},
	}
	faultsGolden = map[string][]float64{
		"no-fault req/s":  {0.135053797161, 0.111280281869, 0.14348146453, 0.149813536455, 0.356544575345, 0.260368000226, 0.368822912371, 0.378127973858, 0.23679427905, 0.215870300978, 0.198421233675, 0.224499157533, 0.12620084362, 0.0992353445336, 0.120065297512, 0.115338345411, 0.151072430325, 0.106433124577, 0.151497156637, 0.154714798894, 0.0942577513368, 0.105253436355, 0.094342085771, 0.094342085771, 0.174659592241},
		"pre-kill req/s":  {0.189075317302, 0.144664366429, 0.186525905227, 0.19475759885, 0.178272287673, 0.208294402892, 0.516352077319, 0.45375356863, 0.14207656743, 0.129522180587, 0.277789727145, 0.314298820547, 0.164061096706, 0.138929483036, 0.156084887703, 0.149939849899, 0.196394160905, 0.170292999323, 0.212096020898, 0.201129238563, 0.113109302137, 0.147354811672, 0.122644712081, 0.122644712081, 0.201252670627},
		"post-kill req/s": {0.0269706486522, 0.0390547764385, 0.035051707929, 0.0355506742561, 0.110772070624, 0.078526452172, 0.0315171844691, 0.0407960348743, 0.0997232444903, 0.0977915831553, 0.0303269391122, 0.0296801726919, 0.0302977659678, 0.0285613479117, 0.0317651204946, 0.0322079084909, 0.0355874495023, 0.0192055798202, 0.0288269113285, 0.0380108034306, 0.0364294612539, 0.0249130558227, 0.0341504645073, 0.0341504645073, 0.042911159246},
		"recovered":       {2, 3, 3, 3, 5, 6, 2, 3, 6, 6, 2, 2, 3, 2, 3, 3, 3, 1, 2, 3, 2, 2, 2, 2, 2.95833333333},
		"lost":            {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
)

// TestAppStyleAndFaultsGolden pins the two tables to 12 significant digits.
func TestAppStyleAndFaultsGolden(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Requests: 12, LambdaFactor: 0.6})
	checkGolden(t, "ablation", s.AblationAppStyle(), appStyleGolden)
	checkGolden(t, "faults", s.Faults(), faultsGolden)
}
