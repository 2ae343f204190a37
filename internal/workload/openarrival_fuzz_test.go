package workload

import (
	"reflect"
	"testing"
)

// FuzzOpenArrivalSpec hammers the textual spec parser with arbitrary strings.
// Parsing and validation must never panic; anything accepted must be a valid
// spec whose canonical String() form re-parses to the same value. Births is
// deliberately not called here — fuzzing controls the text, not the
// generation cost, and the parser's job ends at a validated spec.
func FuzzOpenArrivalSpec(f *testing.F) {
	f.Add("poisson:rate=1,horizon=10s")
	f.Add("poisson:rate=0.5,horizon=2000s,tenants=1200,kind=GA,life=80s,lambda=800ms,weight=2,bigevery=16,bigslots=2")
	f.Add("diurnal:rate=2,horizon=600s,period=120s,depth=0.6")
	f.Add("bursty:rate=5,horizon=300s,burst=6,spread=2s")
	f.Add("diurnal:rate=2,horizon=600s,period=0s,depth=2")
	f.Add("bursty:rate=1e7,horizon=1s,burst=0.1")
	f.Add("weekly:rate=1,horizon=10s")
	f.Add("poisson:rate=NaN,horizon=10s")
	f.Add("poisson:rate=1,horizon=10s,color=red")
	f.Add("poisson:rate=1,horizon=1s,period=5s,depth=0.5,bigslots=3,burst=-2")
	f.Add("poisson:rate,horizon")
	f.Add(":,=,:")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseOpenArrivalSpec(text)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("Parse(%q) returned a spec Validate rejects: %v", text, verr)
		}
		canon := spec.String()
		back, err := ParseOpenArrivalSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, text, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("canonical round trip drifted for %q:\n  %+v\n  %+v", text, spec, back)
		}
	})
}
