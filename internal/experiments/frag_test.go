package experiments

import (
	"testing"
)

// TestFragBeatsBaselines pins the study's headline ordering: the
// fragmentation-gradient policy strands strictly less capacity than GMin and
// GRR, without giving up tail latency.
func TestFragBeatsBaselines(t *testing.T) {
	s := NewSuite(Options{Seed: 1, Requests: 6})
	defer s.arena.Close() // fragRun is not an exported figure: nothing else closes it
	frag := s.fragRun("Frag")
	gmin := s.fragRun("GMin")
	grr := s.fragRun("GRR")

	if frag.StrandedRatio() >= gmin.StrandedRatio() {
		t.Fatalf("Frag stranded %.4f, GMin %.4f: want strictly less",
			frag.StrandedRatio(), gmin.StrandedRatio())
	}
	if frag.StrandedRatio() >= grr.StrandedRatio() {
		t.Fatalf("Frag stranded %.4f, GRR %.4f: want strictly less",
			frag.StrandedRatio(), grr.StrandedRatio())
	}
	// "No worse" on the p99 SLO, with a 1% numerical tolerance.
	if p, q := fragP99(frag), fragP99(gmin); p > q*1.01 {
		t.Fatalf("Frag p99 %.3fs worse than GMin %.3fs", p, q)
	}
	if p, q := fragP99(frag), fragP99(grr); p > q*1.01 {
		t.Fatalf("Frag p99 %.3fs worse than GRR %.3fs", p, q)
	}
	// Every tenant is eventually admitted under every policy.
	want := len(s.fragStreams()) // one stream per tenant
	if frag.SliceCarves != want || gmin.SliceCarves != want || grr.SliceCarves != want {
		t.Fatalf("carves = %d/%d/%d, want %d each",
			frag.SliceCarves, gmin.SliceCarves, grr.SliceCarves, want)
	}
}

// TestFragPackingDeterministicAcrossWorkers requires the rendered study to
// be byte-identical at one worker and at eight.
func TestFragPackingDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		return NewSuite(Options{Seed: 1, Requests: 6, Workers: workers}).FragPacking().Format()
	}
	seq, par := run(1), run(8)
	if seq != par {
		t.Fatalf("FragPacking differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", seq, par)
	}
}
