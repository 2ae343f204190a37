package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWeightedSpeedupIdentity(t *testing.T) {
	a := []sim.Time{10, 20, 30}
	if ws := WeightedSpeedup(a, a); !almost(ws, 1) {
		t.Fatalf("WS(x,x) = %v, want 1", ws)
	}
}

func TestWeightedSpeedupTwoX(t *testing.T) {
	alone := []sim.Time{100, 100}
	shared := []sim.Time{50, 50}
	if ws := WeightedSpeedup(alone, shared); !almost(ws, 2) {
		t.Fatalf("WS = %v, want 2", ws)
	}
}

func TestWeightedSpeedupSkipsZeroShared(t *testing.T) {
	alone := []sim.Time{100, 100}
	shared := []sim.Time{50, 0}
	if ws := WeightedSpeedup(alone, shared); !almost(ws, 2) {
		t.Fatalf("WS = %v, want 2 (zero entry skipped)", ws)
	}
}

func TestWeightedSpeedupDegenerate(t *testing.T) {
	if WeightedSpeedup(nil, nil) != 0 {
		t.Fatal("empty input should be 0")
	}
	if WeightedSpeedup([]sim.Time{1}, []sim.Time{1, 2}) != 0 {
		t.Fatal("mismatched lengths should be 0")
	}
	if WeightedSpeedup([]sim.Time{1}, []sim.Time{0}) != 0 {
		t.Fatal("all-zero shared should be 0")
	}
}

func TestJainFairnessEqualAllocations(t *testing.T) {
	if f := JainFairness([]float64{5, 5, 5, 5}); !almost(f, 1) {
		t.Fatalf("Jain(equal) = %v, want 1", f)
	}
}

func TestJainFairnessOneHog(t *testing.T) {
	if f := JainFairness([]float64{1, 0, 0, 0}); !almost(f, 0.25) {
		t.Fatalf("Jain(hog,n=4) = %v, want 0.25", f)
	}
}

func TestJainFairnessKnownValue(t *testing.T) {
	// (1+2+3)²/(3·(1+4+9)) = 36/42.
	if f := JainFairness([]float64{1, 2, 3}); !almost(f, 36.0/42.0) {
		t.Fatalf("Jain = %v, want %v", f, 36.0/42.0)
	}
}

func TestJainFairnessDegenerate(t *testing.T) {
	if JainFairness(nil) != 0 {
		t.Fatal("empty should be 0")
	}
	if JainFairness([]float64{0, 0}) != 0 {
		t.Fatal("all-zero should be 0")
	}
}

// Property: Jain's index always lies in [1/n, 1] for non-negative inputs
// with at least one positive entry.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		pos := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				pos = true
			}
		}
		if !pos {
			return true
		}
		j := JainFairness(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted speedup is positive and scales linearly when shared
// times halve.
func TestQuickWeightedSpeedupScaling(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		alone := make([]sim.Time, len(raw))
		shared := make([]sim.Time, len(raw))
		for i, r := range raw {
			alone[i] = sim.Time(r) + 1
			shared[i] = (sim.Time(r) + 2) * 2
		}
		ws := WeightedSpeedup(alone, shared)
		half := make([]sim.Time, len(shared))
		for i := range shared {
			half[i] = shared[i] / 2
		}
		ws2 := WeightedSpeedup(alone, half)
		return ws > 0 && math.Abs(ws2-2*ws) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "Fig X", Labels: []string{"DC", "SC"}}
	tab.Add("GRR", []float64{1.5, 2.5})
	tab.Add("GMin", []float64{2.0, 3.0})
	avg := tab.WithAverage()
	if len(avg.Labels) != 3 || avg.Labels[2] != "AVG" {
		t.Fatalf("labels = %v", avg.Labels)
	}
	if v := avg.Row("GRR")[2]; !almost(v, 2.0) {
		t.Fatalf("AVG of GRR = %v", v)
	}
	if avg.Row("nope") != nil {
		t.Fatal("Row of missing series should be nil")
	}
	s := avg.Format()
	if !strings.Contains(s, "Fig X") || !strings.Contains(s, "GMin") || !strings.Contains(s, "AVG") {
		t.Fatalf("Format output missing pieces:\n%s", s)
	}
}

func TestTableFormatShortSeries(t *testing.T) {
	// The renderer itself stays defensive about short series (they can
	// only arise from hand-built Series values now that Add enforces the
	// label count).
	tab := &Table{Title: "t", Labels: []string{"a", "b"},
		Series: []Series{{Name: "s", Values: []float64{1}}}}
	if s := tab.Format(); !strings.Contains(s, "-") {
		t.Fatal("missing value placeholder absent")
	}
}

func TestTableAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with a short series should panic")
		}
	}()
	tab := &Table{Title: "t", Labels: []string{"a", "b"}}
	tab.Add("s", []float64{1})
}
