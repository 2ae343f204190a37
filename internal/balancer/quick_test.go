package balancer

import (
	"testing"
	"testing/quick"

	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// Property: SFT running means stay within the range of recorded samples,
// and drift resets never lose more history than was recorded (the retained
// sample count plus resets is consistent).
func TestQuickSFTMeansBounded(t *testing.T) {
	f := func(execs []uint32) bool {
		if len(execs) == 0 {
			return true
		}
		sft := NewSFT()
		min, max := sim.Time(execs[0]), sim.Time(execs[0])
		for _, e := range execs {
			v := sim.Time(e)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sft.Record(&rpcproto.Feedback{Kind: "X", ExecTime: v})
		}
		got, ok := sft.Lookup("X")
		if !ok || got.Samples < 1 || got.Samples > len(execs) {
			return false
		}
		if got.Samples+sft.DriftResets > len(execs) && sft.DriftResets > 0 {
			// Each reset discards at least driftMinSamples of history.
			return false
		}
		// The mean of any retained window lies within the global range.
		return got.ExecTime >= min-1 && got.ExecTime <= max+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
