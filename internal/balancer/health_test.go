package balancer

import "testing"

func healthDST(n int) *DST {
	rows := make([]*DSTEntry, n)
	for i := range rows {
		rows[i] = &DSTEntry{GID: GID(i), Node: i / 2, Name: "gpu"}
	}
	return NewDST(rows)
}

func TestMarkFailureEscalates(t *testing.T) {
	d := healthDST(2)
	if h := d.Health(0); h != Healthy {
		t.Fatalf("fresh row = %v", h)
	}
	for i := 1; i < FailThreshold; i++ {
		if h := d.MarkFailure(0); h != Suspect {
			t.Fatalf("failure %d = %v, want Suspect", i, h)
		}
	}
	if h := d.MarkFailure(0); h != Dead {
		t.Fatalf("failure %d = %v, want Dead", FailThreshold, h)
	}
	// Dead is terminal: further failures and recoveries are no-ops.
	if h := d.MarkFailure(0); h != Dead {
		t.Fatalf("post-death failure = %v", h)
	}
	d.MarkRecovered(0)
	if h := d.Health(0); h != Dead {
		t.Fatalf("recovered a dead row to %v", h)
	}
	if h := d.Health(1); h != Healthy {
		t.Fatalf("the other row became %v", h)
	}
}

func TestMarkRecoveredResetsTheCounter(t *testing.T) {
	d := healthDST(1)
	d.MarkFailure(0)
	d.MarkRecovered(0)
	if h := d.Health(0); h != Healthy {
		t.Fatalf("after recovery = %v", h)
	}
	// The consecutive-failure count restarts: it again takes FailThreshold
	// failures to kill the row.
	for i := 1; i < FailThreshold; i++ {
		if h := d.MarkFailure(0); h != Suspect {
			t.Fatalf("failure %d after recovery = %v, want Suspect", i, h)
		}
	}
	if h := d.MarkFailure(0); h != Dead {
		t.Fatalf("threshold after recovery = %v, want Dead", h)
	}
}

func TestMarkDeadAndUnknownGIDs(t *testing.T) {
	d := healthDST(1)
	d.MarkDead(0)
	if h := d.Health(0); h != Dead {
		t.Fatalf("MarkDead left %v", h)
	}
	if h := d.Health(99); h != Dead {
		t.Fatalf("unknown gid health = %v, want Dead", h)
	}
	if h := d.MarkFailure(99); h != Dead {
		t.Fatalf("unknown gid MarkFailure = %v, want Dead", h)
	}
	d.MarkRecovered(99) // must not panic
	d.MarkDead(99)      // must not panic
}

func TestGRRSkipsNonHealthy(t *testing.T) {
	d := healthDST(4)
	g := NewGRR()
	req := Request{Kind: "MC"}
	// Fully healthy: plain rotation.
	for i, want := range []GID{0, 1, 2, 3, 0} {
		if got := g.Select(req, d, NewSFT()); got != want {
			t.Fatalf("healthy rotation pick %d = %v, want %v", i, got, want)
		}
	}
	d.MarkDead(1)
	d.MarkFailure(2) // Suspect rows are skipped too
	seen := map[GID]int{}
	for i := 0; i < 6; i++ {
		seen[g.Select(req, d, NewSFT())]++
	}
	if seen[1] != 0 || seen[2] != 0 {
		t.Fatalf("rotation visited non-Healthy rows: %v", seen)
	}
	if seen[0] != 3 || seen[3] != 3 {
		t.Fatalf("rotation skew over survivors: %v", seen)
	}
}

func TestGRRAllDownFallsBackToRotation(t *testing.T) {
	d := healthDST(2)
	d.MarkDead(0)
	d.MarkDead(1)
	g := NewGRR()
	a := g.Select(Request{}, d, NewSFT())
	b := g.Select(Request{}, d, NewSFT())
	if a == b {
		t.Fatalf("exhausted-pool fallback stopped rotating: %v, %v", a, b)
	}
}

func TestArgminSkipsNonHealthy(t *testing.T) {
	d := healthDST(3)
	// GID 0 is idle but dead; GMin must pick the least-loaded survivor.
	d.MarkDead(0)
	d.Bind(1, "MC")
	if got := (GMin{}).Select(Request{Kind: "SC"}, d, NewSFT()); got != 2 {
		t.Fatalf("GMin with dead idle row picked %v, want 2", got)
	}
	// Whole pool down: the full-scan fallback still answers.
	d.MarkDead(1)
	d.MarkDead(2)
	if got := (GMin{}).Select(Request{Kind: "SC"}, d, NewSFT()); got != 0 {
		t.Fatalf("exhausted-pool argmin = %v, want 0", got)
	}
}

func TestMapperReportFailureFeedsDetector(t *testing.T) {
	d := healthDST(2)
	m := NewMapper(d, GMin{})
	for i := 0; i < FailThreshold-1; i++ {
		if h := m.ReportFailure(0); h != Suspect {
			t.Fatalf("report %d = %v", i, h)
		}
	}
	m.ReportRecovered(0)
	if h := d.Health(0); h != Healthy {
		t.Fatalf("after ReportRecovered = %v", h)
	}
	for i := 0; i < FailThreshold; i++ {
		m.ReportFailure(0)
	}
	if h := d.Health(0); h != Dead {
		t.Fatalf("after threshold reports = %v", h)
	}
}
