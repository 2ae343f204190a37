package main

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// addSelfTimes adds to dst, per span kind, the summed self time of set's
// closed spans: a span's duration minus the part of that interval its direct
// children (spans naming it as Parent) cover. Overlapping children are
// counted once. The recorder parents select and call spans under their
// request; exec, wait and op spans are recorded as roots, so their self time
// is their duration.
func addSelfTimes(dst map[trace.Kind]sim.Time, set *trace.Set) {
	children := make(map[trace.SpanID][]trace.Span)
	for _, s := range set.Spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range set.Spans {
		if s.End < s.Start {
			continue // still open when the run ended
		}
		dst[s.Kind] += s.Duration() - covered(s, children[s.ID])
	}
}

// covered measures the union of kids' intervals clipped to parent.
func covered(parent trace.Span, kids []trace.Span) sim.Time {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total sim.Time
	edge := parent.Start // everything before edge is already counted
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, parent.End)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// traceStats folds the traced twin's sets into the simulated-self-time layer
// metrics.
func traceStats(sets []*trace.Set) map[string]float64 {
	self := make(map[trace.Kind]sim.Time)
	var calls, wakes, sleeps, spans int
	for _, set := range sets {
		addSelfTimes(self, set)
		spans += len(set.Spans)
		for _, s := range set.Spans {
			if s.Kind == trace.KCall {
				calls++
			}
		}
		for _, e := range set.Events {
			switch e.Kind {
			case trace.KWake:
				wakes++
			case trace.KSleep:
				sleeps++
			}
		}
	}
	return map[string]float64{
		"core.sim_request_s":    self[trace.KRequest].Seconds(),
		"balancer.sim_select_s": self[trace.KSelect].Seconds(),
		"interpose.sim_self_s":  self[trace.KCall].Seconds(),
		"packer.sim_self_s":     self[trace.KExec].Seconds(),
		"devsched.sim_wait_s":   self[trace.KWait].Seconds(),
		"gpu.sim_op_s":          self[trace.KOp].Seconds(),
		"interpose.calls":       float64(calls),
		"devsched.wakes":        float64(wakes),
		"devsched.sleeps":       float64(sleeps),
		"trace.spans":           float64(spans),
	}
}
