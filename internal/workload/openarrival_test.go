package workload

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// oaSpecs is the generator matrix the seeded properties sweep: one spec per
// process, sized for a long horizon so empirical rates are tight.
func oaSpecs() []OpenArrivalSpec {
	return []OpenArrivalSpec{
		{Process: ProcPoisson, Rate: 5, Horizon: 2000 * sim.Second},
		{Process: ProcDiurnal, Rate: 5, Horizon: 2000 * sim.Second,
			Period: 100 * sim.Second, Depth: 0.7},
		{Process: ProcBursty, Rate: 5, Horizon: 2000 * sim.Second,
			BurstMean: 6, BurstSpread: 2 * sim.Second},
	}
}

// TestBirthsReproduceExactly pins the determinism contract: a source freshly
// seeded with the same seed reproduces the whole population bit for bit,
// inter-arrival gaps included.
func TestBirthsReproduceExactly(t *testing.T) {
	for _, spec := range oaSpecs() {
		for seed := int64(1); seed <= 5; seed++ {
			a, err := spec.Births(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Process, seed, err)
			}
			b, err := spec.Births(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Process, seed, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: populations differ between identical seeds", spec.Process, seed)
			}
			if len(a) == 0 {
				t.Errorf("%s seed %d: empty population", spec.Process, seed)
			}
		}
	}
}

// TestBirthsEmpiricalRate checks that over a long horizon the realized birth
// count is within tolerance of Rate·Horizon for every process: the diurnal
// modulation integrates to zero over whole periods and bursts conserve the
// mean, so all three target the same count (10000 here).
func TestBirthsEmpiricalRate(t *testing.T) {
	for _, spec := range oaSpecs() {
		want := spec.Rate * spec.Horizon.Seconds()
		var total float64
		const seeds = 5
		for seed := int64(1); seed <= seeds; seed++ {
			b, err := spec.Births(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", spec.Process, err)
			}
			total += float64(len(b))
		}
		got := total / seeds
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("%s: mean population %.0f, want %.0f ±5%%", spec.Process, got, want)
		}
	}
}

// TestBirthsMonotoneInstants checks every process — the diurnal thinning and
// the bursty group spreading in particular — emits non-decreasing birth
// instants inside the horizon.
func TestBirthsMonotoneInstants(t *testing.T) {
	for _, spec := range oaSpecs() {
		for seed := int64(1); seed <= 10; seed++ {
			b, err := spec.Births(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", spec.Process, err)
			}
			for i, tb := range b {
				if i > 0 && tb.At < b[i-1].At {
					t.Fatalf("%s seed %d: birth %d at %v before birth %d at %v",
						spec.Process, seed, i, tb.At, i-1, b[i-1].At)
				}
				if tb.At < 0 || tb.At >= spec.Horizon {
					t.Fatalf("%s seed %d: birth %d at %v outside [0, %v)",
						spec.Process, seed, i, tb.At, spec.Horizon)
				}
			}
		}
	}
}

// TestBirthsAttributeContracts checks the per-tenant attribute invariants:
// at least one request per tenant, requests sized from lifetime over lambda,
// lifetimes floored at lambda, and the BigEvery cadence of slot demands.
func TestBirthsAttributeContracts(t *testing.T) {
	spec := OpenArrivalSpec{
		Process: ProcPoisson, Rate: 10, Horizon: 200 * sim.Second,
		MeanLife: 30 * sim.Second, Lambda: 500 * sim.Millisecond,
		BigEvery: 7, BigSlots: 3,
	}
	b, err := spec.Births(rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for i, tb := range b {
		if tb.Requests < 1 {
			t.Fatalf("tenant %d has %d requests", i, tb.Requests)
		}
		if tb.Life < tb.Lambda {
			t.Fatalf("tenant %d life %v below lambda %v", i, tb.Life, tb.Lambda)
		}
		if want := int(int64(tb.Life) / int64(tb.Lambda)); tb.Requests != want && tb.Requests != 1 {
			t.Fatalf("tenant %d requests %d, want %d from life %v", i, tb.Requests, want, tb.Life)
		}
		wantSlots := 1
		if (i+1)%7 == 0 {
			wantSlots = 3
		}
		if tb.Slots != wantSlots {
			t.Fatalf("tenant %d has %d slots, want %d", i, tb.Slots, wantSlots)
		}
		if tb.Kind != spec.Kind || tb.Weight != 1 {
			t.Fatalf("tenant %d carries kind %v weight %d", i, tb.Kind, tb.Weight)
		}
		mean += tb.Life.Seconds()
	}
	mean /= float64(len(b))
	// The lifetime mixture's mean is MeanLife; at ~2000 samples allow 15%.
	if math.Abs(mean-30) > 0.15*30 {
		t.Errorf("mean lifetime %.1fs, want 30s ±15%%", mean)
	}
}

// TestBirthsMaxTenantsCap checks the population cap is exact.
func TestBirthsMaxTenantsCap(t *testing.T) {
	spec := OpenArrivalSpec{Process: ProcPoisson, Rate: 100, Horizon: 100 * sim.Second, MaxTenants: 37}
	b, err := spec.Births(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 37 {
		t.Fatalf("population %d, want exactly MaxTenants=37", len(b))
	}
}

// TestOpenArrivalSpecValidate sweeps the rejection surface: each invalid
// spec must error (never panic) and name the offending field.
func TestOpenArrivalSpecValidate(t *testing.T) {
	base := OpenArrivalSpec{Process: ProcPoisson, Rate: 1, Horizon: sim.Second}
	cases := []struct {
		name   string
		mutate func(*OpenArrivalSpec)
		want   string
	}{
		{"unknown process", func(s *OpenArrivalSpec) { s.Process = "weekly" }, "unknown arrival process"},
		{"zero rate", func(s *OpenArrivalSpec) { s.Rate = 0 }, "rate"},
		{"negative rate", func(s *OpenArrivalSpec) { s.Rate = -3 }, "rate"},
		{"NaN rate", func(s *OpenArrivalSpec) { s.Rate = math.NaN() }, "rate"},
		{"huge rate", func(s *OpenArrivalSpec) { s.Rate = 1e9 }, "rate"},
		{"zero horizon", func(s *OpenArrivalSpec) { s.Horizon = 0 }, "horizon"},
		{"negative tenants", func(s *OpenArrivalSpec) { s.MaxTenants = -1 }, "MaxTenants"},
		{"bad kind", func(s *OpenArrivalSpec) { s.Kind = Kind(99) }, "kind"},
		{"negative bigevery", func(s *OpenArrivalSpec) { s.BigEvery = -2 }, "BigEvery"},
		{"diurnal no period", func(s *OpenArrivalSpec) { s.Process = ProcDiurnal }, "period"},
		{"diurnal bad depth", func(s *OpenArrivalSpec) {
			s.Process = ProcDiurnal
			s.Period = sim.Second
			s.Depth = 1.5
		}, "depth"},
		{"bursty no mean", func(s *OpenArrivalSpec) { s.Process = ProcBursty }, "burst mean"},
		{"bursty negative spread", func(s *OpenArrivalSpec) {
			s.Process = ProcBursty
			s.BurstMean = 4
			s.BurstSpread = -sim.Second
		}, "spread"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, err := s.Births(rand.New(rand.NewSource(1))); err == nil {
				t.Error("Births accepted an invalid spec")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

// TestParseOpenArrivalSpec round-trips the textual form and pins its error
// surface.
func TestParseOpenArrivalSpec(t *testing.T) {
	spec, err := ParseOpenArrivalSpec(
		"diurnal:rate=2,horizon=600s,tenants=500,kind=MC,life=45s,lambda=800ms,period=120s,depth=0.6")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Process != ProcDiurnal || spec.Rate != 2 || spec.Horizon != 600*sim.Second ||
		spec.MaxTenants != 500 || spec.Kind != MonteCarlo || spec.MeanLife != 45*sim.Second ||
		spec.Lambda != 800*sim.Millisecond || spec.Period != 120*sim.Second || spec.Depth != 0.6 {
		t.Fatalf("parsed spec mismatch: %+v", spec)
	}

	// String() re-parses to the same spec.
	again, err := ParseOpenArrivalSpec(spec.String())
	if err != nil {
		t.Fatalf("String() form does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip drifted:\n  %+v\n  %+v", spec, again)
	}

	bad := []struct{ text, want string }{
		{"hourly:rate=1,horizon=10s", "unknown arrival process"},
		{"poisson:rate=1", "horizon"},
		{"poisson:horizon=10s", "rate"},
		{"poisson:rate=1,horizon=10s,color=red", "unknown key"},
		{"poisson:rate=1,horizon=10s,kind=ZZ", "Table I code"},
		{"poisson:rate=1,horizon=ten", "duration"},
		{"poisson:rate=much,horizon=10s", "finite number"},
		{"poisson:rate=1,horizon=10s,tenants=few", "integer"},
		{"poisson:rate,horizon=10s", "key=value"},
		{"", "unknown arrival process"},
	}
	for _, tc := range bad {
		if _, err := ParseOpenArrivalSpec(tc.text); err == nil {
			t.Errorf("Parse(%q) accepted invalid text", tc.text)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.text, err, tc.want)
		}
	}
}

// TestDiurnalModulatesRate checks the diurnal process actually moves load:
// the half-period around the peak must see substantially more births than
// the half around the trough.
func TestDiurnalModulatesRate(t *testing.T) {
	spec := OpenArrivalSpec{Process: ProcDiurnal, Rate: 10, Horizon: 1000 * sim.Second,
		Period: 200 * sim.Second, Depth: 0.8}
	b, err := spec.Births(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var trough, peak int
	for _, tb := range b {
		phase := math.Mod(tb.At.Seconds(), 200) / 200 // trough at 0, peak at 0.5
		if phase > 0.25 && phase < 0.75 {
			peak++
		} else {
			trough++
		}
	}
	if peak < 2*trough {
		t.Errorf("peak half got %d births vs trough half %d; diurnal modulation too weak", peak, trough)
	}
}
