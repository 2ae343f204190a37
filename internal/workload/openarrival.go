package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/textform"
)

// Open-arrival tenant streams: where StreamSpec describes a closed set of
// requests from one long-lived tenant, OpenArrivalSpec describes a *birth
// process* — tenants arrive over a horizon, live for a while, issue requests,
// and depart. This is the traffic shape the cluster tier schedules
// (internal/cluster): thousands of small tenants churning instead of a few
// long-running applications.
//
// Everything is a pure function of (seed, spec): the generator draws from the
// caller's seeded source only, so identical seeds reproduce identical
// populations bit for bit — the property the cluster tier's determinism
// battery pins.

// TenantBirth is one tenant of an open-arrival population: when it arrives,
// how long it holds its capacity, and the request stream it issues while
// alive.
type TenantBirth struct {
	// At is the birth instant. Births are monotone non-decreasing across
	// the population, whatever the process.
	At sim.Time

	// Life is the tenant's declared lifetime: the cluster tier's capacity
	// ledger holds the tenant's slots for [At, At+Life).
	Life sim.Time

	// Requests is the number of requests the tenant issues over its life
	// (Life/Lambda, at least one).
	Requests int

	// Kind, Lambda and Weight shape the tenant's request stream.
	Kind   Kind
	Lambda sim.Time
	Weight int

	// Slots is the tenant's capacity demand on the cluster ledger (most
	// tenants demand 1; every BigEvery-th demands BigSlots).
	Slots int
}

// Open-arrival process names.
const (
	// ProcPoisson is a homogeneous Poisson birth process.
	ProcPoisson = "poisson"
	// ProcDiurnal modulates the birth rate sinusoidally around Rate
	// (amplitude Depth, period Period) — the day/night load curve.
	ProcDiurnal = "diurnal"
	// ProcBursty clusters births: burst epochs arrive as a Poisson process
	// and each epoch births a geometric group spread over BurstSpread.
	ProcBursty = "bursty"
)

// hardBirthCap bounds any single generation, whatever the spec claims: a
// pathological rate/horizon pair must exhaust the cap, not memory.
const hardBirthCap = 1 << 21

// OpenArrivalSpec configures one open-arrival tenant stream. The zero value
// is invalid; use ParseOpenArrivalSpec or fill Process/Rate/Horizon and let
// Births apply the remaining defaults.
type OpenArrivalSpec struct {
	// Process selects the birth process: "poisson", "diurnal" or "bursty".
	Process string

	// Rate is the mean tenant birth rate in tenants per virtual second
	// (for every process; diurnal modulates around it, bursty clusters it).
	Rate float64

	// Horizon is the birth window: no tenant is born at or after it.
	Horizon sim.Time

	// MaxTenants, when > 0, caps the population size.
	MaxTenants int

	// Kind is the benchmark class every tenant's requests run. It has no
	// default: the zero value is DXTC.
	Kind Kind

	// MeanLife is the mean tenant lifetime. Lifetimes are drawn from a
	// two-phase exponential mixture with this mean: most tenants are
	// short-lived, a heavy tail lives an order of magnitude longer.
	MeanLife sim.Time

	// Lambda is the per-tenant mean request inter-arrival time; a tenant's
	// request count is its lifetime over Lambda.
	Lambda sim.Time

	// Weight is every tenant's fair-share weight (default 1).
	Weight int

	// BigEvery, when > 0, makes every BigEvery-th tenant demand BigSlots
	// capacity slots instead of 1 — the mixed-size population that makes
	// cluster placement fragment.
	BigEvery int
	BigSlots int

	// Diurnal parameters: the instantaneous rate is
	// Rate·(1 − Depth·cos(2πt/Period)), so load troughs at t = 0 and peaks
	// half a period in.
	Period sim.Time
	Depth  float64

	// Bursty parameters: burst epochs arrive at Rate/BurstMean and each
	// births on average BurstMean tenants spread uniformly over BurstSpread.
	BurstMean   float64
	BurstSpread sim.Time
}

// withDefaults fills the optional fields.
func (s OpenArrivalSpec) withDefaults() OpenArrivalSpec {
	if s.MeanLife <= 0 {
		s.MeanLife = 60 * sim.Second
	}
	if s.Lambda <= 0 {
		s.Lambda = sim.Second
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.BigEvery > 0 && s.BigSlots <= 0 {
		s.BigSlots = 2
	}
	return s
}

// Validate checks the spec (after defaulting) and returns the first problem
// found. A nil error guarantees Births terminates within the hard cap.
func (s OpenArrivalSpec) Validate() error {
	s = s.withDefaults()
	switch s.Process {
	case ProcPoisson, ProcDiurnal, ProcBursty:
	default:
		return fmt.Errorf("workload: unknown arrival process %q (valid: %s, %s, %s)",
			s.Process, ProcPoisson, ProcDiurnal, ProcBursty)
	}
	if !(s.Rate > 0) || s.Rate > 1e6 {
		return fmt.Errorf("workload: arrival rate must be in (0, 1e6] tenants/s (got %v)", s.Rate)
	}
	if s.Horizon < sim.Time(1) {
		return fmt.Errorf("workload: arrival horizon must be at least 1µs (got %v)", s.Horizon)
	}
	if s.MaxTenants < 0 {
		return fmt.Errorf("workload: MaxTenants must be >= 0 (got %d)", s.MaxTenants)
	}
	if s.Kind < 0 || s.Kind >= numKinds {
		return fmt.Errorf("workload: unknown benchmark kind %d", int(s.Kind))
	}
	if s.BigEvery < 0 {
		return fmt.Errorf("workload: BigEvery must be >= 0 (got %d)", s.BigEvery)
	}
	if s.BigEvery > 0 && s.BigSlots < 2 {
		return fmt.Errorf("workload: BigSlots must be >= 2 when BigEvery is set (got %d)", s.BigSlots)
	}
	switch s.Process {
	case ProcDiurnal:
		if s.Period < sim.Millisecond {
			return fmt.Errorf("workload: diurnal period must be at least 1ms (got %v)", s.Period)
		}
		if s.Depth < 0 || s.Depth > 1 || math.IsNaN(s.Depth) {
			return fmt.Errorf("workload: diurnal depth must be in [0, 1] (got %v)", s.Depth)
		}
	case ProcBursty:
		if !(s.BurstMean >= 1) || s.BurstMean > 1e4 {
			return fmt.Errorf("workload: burst mean must be in [1, 1e4] tenants (got %v)", s.BurstMean)
		}
		if s.BurstSpread < 0 {
			return fmt.Errorf("workload: burst spread must be >= 0 (got %v)", s.BurstSpread)
		}
	}
	return nil
}

// Births materializes the tenant population from the given random source.
// Instants are monotone non-decreasing; the whole population is a pure
// function of (spec, source state), so a source freshly seeded with the same
// seed reproduces it exactly.
func (s OpenArrivalSpec) Births(rng *rand.Rand) ([]TenantBirth, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	limit := hardBirthCap
	if s.MaxTenants > 0 && s.MaxTenants < limit {
		limit = s.MaxTenants
	}

	// Phase 1: birth instants. Each process yields instants in [0, Horizon)
	// that are already non-decreasing except within bursty groups, so one
	// deterministic sort canonicalizes the timeline before any per-tenant
	// attribute is drawn.
	var instants []sim.Time
	switch s.Process {
	case ProcPoisson:
		instants = s.poissonInstants(rng, limit)
	case ProcDiurnal:
		instants = s.diurnalInstants(rng, limit)
	case ProcBursty:
		instants = s.burstyInstants(rng, limit)
	}
	slices.Sort(instants)

	// Phase 2: per-tenant attributes, in birth order.
	births := make([]TenantBirth, len(instants))
	for i, at := range instants {
		life := s.drawLife(rng)
		reqs := int(int64(life) / int64(s.Lambda))
		if reqs < 1 {
			reqs = 1
		}
		slots := 1
		if s.BigEvery > 0 && (i+1)%s.BigEvery == 0 {
			slots = s.BigSlots
		}
		births[i] = TenantBirth{
			At: at, Life: life, Requests: reqs,
			Kind: s.Kind, Lambda: s.Lambda, Weight: s.Weight, Slots: slots,
		}
	}
	return births, nil
}

// meanGap is the process's mean inter-birth gap.
func (s OpenArrivalSpec) meanGap() sim.Time {
	g := sim.Time(1e6 / s.Rate)
	if g < 1 {
		g = 1
	}
	return g
}

// poissonInstants draws a homogeneous Poisson timeline.
func (s OpenArrivalSpec) poissonInstants(rng *rand.Rand, limit int) []sim.Time {
	var out []sim.Time
	gap := s.meanGap()
	t := ExpInterArrival(rng, gap)
	for t < s.Horizon && len(out) < limit {
		out = append(out, t)
		t += ExpInterArrival(rng, gap)
	}
	return out
}

// diurnalInstants draws an inhomogeneous Poisson timeline by Lewis thinning:
// candidates arrive at the peak rate Rate·(1+Depth) and survive with
// probability λ(t)/λmax, which preserves monotonicity by construction and
// the mean rate over whole periods (the cosine integrates to zero).
func (s OpenArrivalSpec) diurnalInstants(rng *rand.Rand, limit int) []sim.Time {
	var out []sim.Time
	peak := s.Rate * (1 + s.Depth)
	gap := sim.Time(1e6 / peak)
	if gap < 1 {
		gap = 1
	}
	t := ExpInterArrival(rng, gap)
	for t < s.Horizon && len(out) < limit {
		phase := 2 * math.Pi * float64(t) / float64(s.Period)
		accept := (1 - float64(s.Depth*math.Cos(phase))) / (1 + s.Depth)
		if rng.Float64() < accept {
			out = append(out, t)
		}
		t += ExpInterArrival(rng, gap)
	}
	return out
}

// burstyInstants draws burst epochs at Rate/BurstMean and, per epoch, a
// geometric group (mean BurstMean) spread uniformly over BurstSpread. Group
// offsets may straddle the next epoch; the caller's sort canonicalizes.
func (s OpenArrivalSpec) burstyInstants(rng *rand.Rand, limit int) []sim.Time {
	var out []sim.Time
	epochGap := sim.Time(1e6 * s.BurstMean / s.Rate)
	if epochGap < 1 {
		epochGap = 1
	}
	t := ExpInterArrival(rng, epochGap)
	for t < s.Horizon && len(out) < limit {
		// Geometric with mean BurstMean, support >= 1.
		n := 1
		for float64(n) < s.BurstMean*10 && rng.Float64() > 1/s.BurstMean {
			n++
		}
		for j := 0; j < n && len(out) < limit; j++ {
			at := t
			if s.BurstSpread > 0 {
				at += sim.Time(rng.Int63n(int64(s.BurstSpread)))
			}
			if at < s.Horizon {
				out = append(out, at)
			}
		}
		t += ExpInterArrival(rng, epochGap)
	}
	return out
}

// Lifetime mixture: most tenants are short-lived, a tail an order of
// magnitude longer, with the overall mean equal to MeanLife
// (0.9·0.5 + 0.1·5.5 = 1).
const (
	lifeTailShare = 0.1
	lifeBodyScale = 0.5
	lifeTailScale = 5.5
)

// drawLife draws one heavy-tailed lifetime with mean MeanLife, floored at
// Lambda so every tenant issues at least one request within its life.
func (s OpenArrivalSpec) drawLife(rng *rand.Rand) sim.Time {
	scale := lifeBodyScale
	if rng.Float64() < lifeTailShare {
		scale = lifeTailScale
	}
	life := ExpInterArrival(rng, sim.Time(scale*float64(s.MeanLife)))
	if life < s.Lambda {
		life = s.Lambda
	}
	return life
}

// KindByCode resolves a Table I two-letter code ("GA", "MC", ...) to its
// Kind, case-insensitively.
func KindByCode(code string) (Kind, bool) {
	for _, k := range AllKinds {
		if strings.EqualFold(Specs[k].Short, code) {
			return k, true
		}
	}
	return 0, false
}

// arrivalFields is the spec's text form, in its canonical key order. Each
// key takes any value of its kind: Validate alone judges the whole spec.
var arrivalFields = []textform.Field[OpenArrivalSpec]{
	textform.Float("rate", func(s OpenArrivalSpec) float64 { return s.Rate }, func(s *OpenArrivalSpec, f float64) { s.Rate = f }),
	textform.Duration("horizon", math.MinInt64, func(s OpenArrivalSpec) sim.Time { return s.Horizon }, func(s *OpenArrivalSpec, t sim.Time) { s.Horizon = t }),
	textform.Int("tenants", func(s OpenArrivalSpec) int { return s.MaxTenants }, func(s *OpenArrivalSpec, n int) { s.MaxTenants = n }),
	{Key: "kind", Parse: func(s *OpenArrivalSpec, v string) error {
		k, ok := KindByCode(v)
		if !ok {
			return fmt.Errorf("%q is not a Table I code", v)
		}
		s.Kind = k
		return nil
	}, Format: func(b []byte, s OpenArrivalSpec) []byte { return append(b, s.Kind.String()...) }},
	textform.Duration("life", math.MinInt64, func(s OpenArrivalSpec) sim.Time { return s.MeanLife }, func(s *OpenArrivalSpec, t sim.Time) { s.MeanLife = t }),
	textform.Duration("lambda", math.MinInt64, func(s OpenArrivalSpec) sim.Time { return s.Lambda }, func(s *OpenArrivalSpec, t sim.Time) { s.Lambda = t }),
	textform.Int("weight", func(s OpenArrivalSpec) int { return s.Weight }, func(s *OpenArrivalSpec, n int) { s.Weight = n }),
	textform.Int("bigevery", func(s OpenArrivalSpec) int { return s.BigEvery }, func(s *OpenArrivalSpec, n int) { s.BigEvery = n }),
	textform.Int("bigslots", func(s OpenArrivalSpec) int { return s.BigSlots }, func(s *OpenArrivalSpec, n int) { s.BigSlots = n }),
	textform.Duration("period", math.MinInt64, func(s OpenArrivalSpec) sim.Time { return s.Period }, func(s *OpenArrivalSpec, t sim.Time) { s.Period = t }),
	textform.Float("depth", func(s OpenArrivalSpec) float64 { return s.Depth }, func(s *OpenArrivalSpec, f float64) { s.Depth = f }),
	textform.Float("burst", func(s OpenArrivalSpec) float64 { return s.BurstMean }, func(s *OpenArrivalSpec, f float64) { s.BurstMean = f }),
	textform.Duration("spread", math.MinInt64, func(s OpenArrivalSpec) sim.Time { return s.BurstSpread }, func(s *OpenArrivalSpec, t sim.Time) { s.BurstSpread = t }),
}

// ParseOpenArrivalSpec parses the textual spec form
//
//	process:key=value,key=value,...
//
// e.g. "poisson:rate=0.5,horizon=2000s,tenants=1000,kind=GA,life=80s,lambda=800ms"
// or "diurnal:rate=2,horizon=600s,period=120s,depth=0.6". Durations use Go
// syntax ("800ms", "1.5s"). Keys, in any case: rate, horizon, tenants, kind,
// life, lambda, weight, bigevery, bigslots, period, depth, burst, spread; a
// repeated one is an error, a blank item is skipped. The spec returned is
// validated; invalid text never panics, it errors.
func ParseOpenArrivalSpec(text string) (OpenArrivalSpec, error) {
	proc, rest, _ := strings.Cut(text, ":")
	s := OpenArrivalSpec{Process: strings.ToLower(strings.TrimSpace(proc))}
	items := strings.Split(rest, ",")
	for i, kv := range items {
		key, _, _ := strings.Cut(kv, "=")
		items[i] = strings.ToLower(key) + kv[len(key):]
	}
	if err := textform.ParseKV(&s, items, arrivalFields); err != nil {
		return s, fmt.Errorf("workload: arrival spec: %w", err)
	}
	s = s.withDefaults()
	return s, s.Validate()
}

// String renders the spec in its parseable form, canonical key order, the
// keys at their default left out.
func (s OpenArrivalSpec) String() string { return string(s.Append(nil)) }

// Append appends the text form to b. It allocates nothing once b has room.
func (s OpenArrivalSpec) Append(b []byte) []byte {
	b, _ = textform.AppendKV(append(append(b, s.Process...), ':'), "", ",", s, OpenArrivalSpec{Process: s.Process}.withDefaults(), arrivalFields)
	return b
}
