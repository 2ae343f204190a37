package workload

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// ExpInterArrival draws one inter-arrival gap from the paper's equation (4),
//
//	T = -λ · ln(X),   X uniform in (0, 1],
//
// the negative-exponential model of the SPECpower_ssj2008 service generator.
func ExpInterArrival(rng *rand.Rand, lambda sim.Time) sim.Time {
	x := 1 - float64(rng.Float64()) // (0, 1]
	return sim.Time(float64(-float64(lambda)*math.Log(x)) + 0.5)
}

// StreamSpec describes one random stream of requests for a single
// application class arriving at one node.
type StreamSpec struct {
	Kind   Kind
	Count  int      // number of requests
	Lambda sim.Time // mean inter-arrival time
	Node   int      // arrival node
	Tenant int64
	Weight int
	Style  Style // how the requests issue their GPU work

	// LambdaFactor, if set and Lambda is zero, sizes λ proportionally to
	// the application's solo runtime, as the paper does.
	LambdaFactor float64

	// SliceProfile, when non-empty, asks the placement layer to serve this
	// tenant from a dedicated MIG-style slice of the named shape ("1g" ..
	// "7g", see gpu.MIGProfiles) instead of a shared whole device. The
	// string stays flat so StreamSpec remains comparable (it keys caches).
	SliceProfile string

	// Start offsets every arrival of the stream, staggering tenant onsets
	// so scenarios can shape instantaneous load (zero = legacy behavior).
	Start sim.Time
}

// EffectiveLambda resolves the stream's mean inter-arrival time.
func (s StreamSpec) EffectiveLambda() sim.Time {
	if s.Lambda > 0 {
		return s.Lambda
	}
	f := s.LambdaFactor
	if f <= 0 {
		f = 0.6
	}
	return sim.Time(f * float64(ProfileFor(s.Kind).SoloRuntime))
}

// Arrivals materializes the stream's request arrival times using the given
// random source.
func (s StreamSpec) Arrivals(rng *rand.Rand) []sim.Time {
	times := make([]sim.Time, s.Count)
	t := s.Start
	lambda := s.EffectiveLambda()
	for i := range times {
		t += ExpInterArrival(rng, lambda)
		times[i] = t
	}
	return times
}
