package trace

import (
	"testing"

	"repro/internal/sim"
)

// TestNilRecorderIsSafe pins the disabled-path contract: every method on a
// nil *Recorder no-ops, returns its zero answer, and never panics.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if id := r.Begin(KRequest, 0, 10, "x", 1, 0, 0); id != 0 {
		t.Errorf("nil Begin returned span id %d, want 0", id)
	}
	r.End(0, 20)
	r.End(1, 20)
	r.SetGID(1, 3)
	r.Complete(KOp, "k", 1, 0, 0, 5, 9)
	r.Event(KWake, 7, "", 1, 0, 0)
	r.RecordDecision(Decision{})
	set := r.Snapshot()
	if set == nil || len(set.Spans)+len(set.Events)+len(set.Decisions)+len(r.Open()) != 0 {
		t.Errorf("nil Snapshot = %+v, want empty set", set)
	}
}

// BenchmarkRecorderDisabled proves the nil recorder costs nothing on the hot
// path: the full instrument sequence a traced call site performs must run at
// 0 allocs/op.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			b.Fatal("nil recorder enabled")
		}
		id := r.Begin(KCall, 0, sim.Time(i), "call", 1, 0, int64(i))
		r.End(id, sim.Time(i+1))
		r.Complete(KOp, "op", 1, 0, 0, sim.Time(i), sim.Time(i+1))
		r.Event(KWake, sim.Time(i), "", 1, 0, 0)
	}
}

// BenchmarkRecorderEnabled sizes the enabled path for comparison.
func BenchmarkRecorderEnabled(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := r.Begin(KCall, 0, sim.Time(i), "call", 1, 0, int64(i))
		r.End(id, sim.Time(i+1))
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := New()
	if !r.Enabled() {
		t.Fatal("fresh recorder not enabled")
	}
	req := r.Begin(KRequest, 0, 100, "MC", 1, -1, 7)
	call := r.Begin(KCall, req, 110, "cudaLaunch", 1, 0, 1)
	if req != 1 || call != 2 {
		t.Fatalf("span ids = %d, %d; want 1, 2", req, call)
	}
	r.End(call, 150)
	r.SetGID(req, 1)
	r.End(req, 200)

	set := r.Snapshot()
	if len(set.Spans) != 2 {
		t.Fatalf("got %d spans", len(set.Spans))
	}
	got := set.Spans[0]
	if got.Kind != KRequest || got.Name != "MC" || got.GID != 1 ||
		got.Start != 100 || got.End != 200 || got.Arg != 7 {
		t.Errorf("request span = %+v", got)
	}
	if d := got.Duration(); d != 100 {
		t.Errorf("request duration = %v, want 100", d)
	}
	if set.Spans[1].Parent != req {
		t.Errorf("call parent = %d, want %d", set.Spans[1].Parent, req)
	}

	// Double-End must not move a closed span; out-of-range ids no-op.
	r.End(req, 999)
	r.End(99, 999)
	r.SetGID(99, 5)
	if s := r.Snapshot().Spans[0]; s.End != 200 {
		t.Errorf("double End moved span end to %v", s.End)
	}
}

func TestOpenSpanDuration(t *testing.T) {
	r := New()
	r.Begin(KWait, 0, 50, "wait", 1, 0, 0)
	sp := r.Snapshot().Spans[0]
	if sp.End != -1 {
		t.Errorf("open span End = %v, want -1", sp.End)
	}
	if sp.Duration() != 0 {
		t.Errorf("open span Duration = %v, want 0", sp.Duration())
	}
	if open := r.Open(); len(open) != 1 || open[0] != sp {
		t.Errorf("Open() = %+v, want the one open span", open)
	}
	r.End(sp.ID, 60)
	if open := r.Open(); len(open) != 0 {
		t.Errorf("Open() after End = %+v, want none", open)
	}
}

func TestCompleteAndEvents(t *testing.T) {
	r := New()
	r.Complete(KOp, "kernel", 2, 1, 4096, 10, 35)
	r.Event(KRetry, 40, "cudaLaunch", 2, 1, 3)
	set := r.Snapshot()
	if len(set.Spans) != 1 || len(set.Events) != 1 {
		t.Fatalf("got %d spans, %d events", len(set.Spans), len(set.Events))
	}
	if sp := set.Spans[0]; sp.Start != 10 || sp.End != 35 || sp.Kind != KOp {
		t.Errorf("completed span = %+v", sp)
	}
	if e := set.Events[0]; e.Kind != KRetry || e.At != 40 || e.Arg != 3 {
		t.Errorf("event = %+v", e)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Errorf("KindByName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if Kind(200).String() != "none" {
		t.Errorf("out-of-range kind String = %q", Kind(200).String())
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("KindByName accepted an unknown name")
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := New()
	r.Begin(KRequest, 0, 1, "a", 1, 0, 0)
	set := r.Snapshot()
	r.Begin(KRequest, 0, 2, "b", 2, 0, 0)
	if len(set.Spans) != 1 {
		t.Errorf("snapshot grew with the recorder: %d spans", len(set.Spans))
	}
	set.Spans[0].Name = "mutated"
	if r.Snapshot().Spans[0].Name != "a" {
		t.Error("mutating a snapshot changed the recorder")
	}
}
