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

// checkFig9Golden compares one Fig 9 table against the pinned values.
func checkFig9Golden(t *testing.T, variant string, tab *metrics.Table) {
	t.Helper()
	const tol = 1e-9 // golden values carry 12 significant digits
	for series, want := range fig9Golden {
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
		// The default path: kernels recycled through the suite's arena,
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
		checkFig9Golden(t, v.name, tables[i])
	}
	for i := 1; i < len(variants); i++ {
		if !reflect.DeepEqual(tables[i], tables[0]) {
			t.Errorf("variant %s produced a table not deeply equal to %s",
				variants[i].name, variants[0].name)
		}
	}
}
