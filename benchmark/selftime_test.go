package main

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestSelfTimes(t *testing.T) {
	span := func(id, parent trace.SpanID, k trace.Kind, start, end sim.Time) trace.Span {
		return trace.Span{ID: id, Parent: parent, Kind: k, Start: start, End: end}
	}
	set := &trace.Set{
		Spans: []trace.Span{
			span(1, 0, trace.KRequest, 0, 100),
			span(2, 1, trace.KCall, 10, 30),
			span(3, 1, trace.KCall, 20, 50),   // overlaps span 2: [10,50] is covered once
			span(4, 1, trace.KSelect, 60, 70), // disjoint child
			span(5, 1, trace.KCall, 90, 120),  // runs past its parent: clipped to [90,100]
			span(6, 0, trace.KExec, 12, 28),   // recorded as a root: all self
			span(7, 1, trace.KCall, 95, -1),   // still open: neither counted nor covering
		},
		Events: []trace.Event{{Kind: trace.KWake}, {Kind: trace.KWake}, {Kind: trace.KSleep}},
	}
	got := make(map[trace.Kind]sim.Time)
	addSelfTimes(got, set)
	for k, want := range map[trace.Kind]sim.Time{
		trace.KRequest: 100 - (40 + 10 + 10),
		trace.KCall:    20 + 30 + 30,
		trace.KSelect:  10,
		trace.KExec:    16,
		trace.KWait:    0,
	} {
		if got[k] != want {
			t.Errorf("self time of %v spans = %v, want %v", k, got[k], want)
		}
	}

	stats := traceStats([]*trace.Set{set, set})
	for name, want := range map[string]float64{
		"core.sim_request_s":   2 * 40e-6,
		"interpose.sim_self_s": 2 * 80e-6,
		"interpose.calls":      2 * 4,
		"devsched.wakes":       4,
		"devsched.sleeps":      2,
		"trace.spans":          14,
	} {
		if got := stats[name]; got != want {
			t.Errorf("traceStats[%s] = %v, want %v", name, got, want)
		}
	}
}
