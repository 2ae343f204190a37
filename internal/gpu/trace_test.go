package gpu

import (
	"testing"

	"repro/internal/sim"
)

func seg(from, to sim.Time, cu float64) UtilSegment {
	return UtilSegment{From: from, To: to, ComputeUtil: cu}
}

func TestUtilTraceMerge(t *testing.T) {
	tr := &UtilTrace{}
	tr.Segment(0, 10, 1, 0, 0, 0)
	tr.Segment(10, 20, 1, 0, 0, 0) // identical adjacent: merged
	tr.Segment(20, 30, 0.5, 0, 0, 0)
	tr.Segment(30, 30, 0.9, 0, 0, 0) // zero length: dropped
	if len(tr.Segments) != 2 {
		t.Fatalf("segments = %d, want 2 (merge+drop)", len(tr.Segments))
	}
	if tr.Segments[0].To != 20 {
		t.Fatalf("merged segment ends at %v, want 20", tr.Segments[0].To)
	}
}

func TestMeanUtilClampsToHorizon(t *testing.T) {
	tr := &UtilTrace{Segments: []UtilSegment{seg(0, 200, 1)}}
	c, _ := tr.MeanUtil(100)
	if c < 0.99 || c > 1.01 {
		t.Fatalf("mean = %v, want 1 over truncated horizon", c)
	}
	if c, _ := tr.MeanUtil(0); c != 0 {
		t.Fatal("zero horizon mean should be 0")
	}
}

func TestTraceString(t *testing.T) {
	tr := &UtilTrace{}
	if tr.String() != "UtilTrace(empty)" {
		t.Fatalf("empty trace String = %q", tr.String())
	}
	tr.Segment(0, 10, 1, 0, 0, 0)
	if tr.String() == "" {
		t.Fatal("non-empty trace String empty")
	}
}
