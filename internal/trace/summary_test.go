package trace

import (
	"bytes"
	"strings"
	"testing"
)

func summarySet() *Set {
	return &Set{
		Spans: []Span{
			// App 2 arrives first but app 1's request span is recorded first:
			// Summarize must order by start time, not recording order.
			{ID: 1, Kind: KRequest, Name: "MC", App: 1, GID: 0, Start: 200, End: 900},
			{ID: 2, Kind: KSelect, Name: "select-gpu", App: 1, GID: 0, Start: 210, End: 215},
			{ID: 3, Kind: KCall, Name: "cudaLaunch", App: 1, GID: 0, Start: 220, End: 300},
			{ID: 4, Kind: KCall, Name: "cudaMemcpy", App: 1, GID: 0, Start: 310, End: 350},
			{ID: 5, Kind: KWait, Name: "wait-turn", App: 1, GID: 0, Start: 230, End: 260},
			{ID: 6, Kind: KExec, Name: "cudaLaunch", App: 1, GID: 0, Start: 260, End: 290},
			{ID: 7, Kind: KOp, Name: "kernel", App: 1, GID: 0, Start: 265, End: 285},
			{ID: 8, Kind: KRequest, Name: "BS", App: 2, GID: 1, Start: 100, End: -1},
			// Cluster-scoped span (App -1) must not create a summary row.
			{ID: 9, Kind: KOp, Name: "sys", App: -1, GID: 0, Start: 1, End: 2},
		},
	}
}

func TestSummarize(t *testing.T) {
	sums := summarySet().Summarize()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	// Ordered by start: app 2 (start 100) first.
	if sums[0].App != 2 || sums[1].App != 1 {
		t.Fatalf("order = app %d, app %d; want 2, 1", sums[0].App, sums[1].App)
	}
	r := sums[1]
	if r.Name != "MC" || r.GID != 0 || r.Start != 200 || r.End != 900 {
		t.Errorf("request fields = %+v", r)
	}
	if r.Calls != 2 {
		t.Errorf("calls = %d, want 2", r.Calls)
	}
	if r.Wait != 30 || r.Exec != 30 || r.OpTime != 20 || r.Selected != 5 {
		t.Errorf("wait/exec/op/selected = %v/%v/%v/%v, want 30/30/20/5",
			r.Wait, r.Exec, r.OpTime, r.Selected)
	}
}

func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := summarySet().WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline has %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "app") || !strings.Contains(lines[0], "gputime") {
		t.Errorf("header = %q", lines[0])
	}
	// App 2's request is still open.
	if !strings.Contains(lines[1], "open") {
		t.Errorf("open request row = %q, want latency 'open'", lines[1])
	}
}

func TestWriteDecisions(t *testing.T) {
	set := &Set{Decisions: []Decision{
		{
			At: 120, App: 1, Class: "MC", Node: 0, Tenant: 4, Policy: "GMin",
			Picked: 0, SFTSamples: 5, SFTExec: 1234,
			Rows: []DecisionRow{
				{GID: 0, Node: 0, Health: "Healthy", Load: 2, Weight: 1.5},
				{GID: 1, Node: 0, Health: "Dead", Load: 0, Weight: 0.25},
			},
		},
		{At: 300, App: 2, Class: "BS", Policy: "GRR", Picked: 1},
	}}
	var buf bytes.Buffer
	if err := set.WriteDecisions(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"GMin     -> gid 0  [sft: 5 samples, exec 1.234ms]",
		"gid 0 node 0 Healthy", "gid 1 node 0 Dead", "gid 1  [sft: 0 samples",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("decision log missing %q:\n%s", want, out)
		}
	}
}
