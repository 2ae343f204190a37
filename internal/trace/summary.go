package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// ReqSummary aggregates one request's spans into the per-request timeline
// strings-trace prints.
type ReqSummary struct {
	App      int
	Name     string // application class
	GID      int
	Start    sim.Time
	End      sim.Time
	Calls    int      // intercepted CUDA calls
	Wait     sim.Time // total time parked in the device scheduler's gate
	Exec     sim.Time // total time executing inside the Context Packer
	OpTime   sim.Time // total GPU engine time (kernels + copies)
	Selected sim.Time // device-selection round-trip time
}

// Summarize folds the span stream into per-request summaries, ordered by
// request start time (ties by app id).
func (s *Set) Summarize() []ReqSummary {
	byApp := make(map[int]*ReqSummary)
	order := make([]int, 0, 16)
	get := func(app int) *ReqSummary {
		if r, ok := byApp[app]; ok {
			return r
		}
		r := &ReqSummary{App: app, GID: -1}
		byApp[app] = r
		order = append(order, app)
		return r
	}
	for _, sp := range s.Spans {
		if sp.App < 0 {
			continue
		}
		r := get(sp.App)
		switch sp.Kind {
		case KRequest:
			r.Name = sp.Name
			r.Start = sp.Start
			r.End = sp.End
			r.GID = sp.GID
		case KSelect:
			r.Selected += sp.Duration()
		case KCall:
			r.Calls++
		case KWait:
			r.Wait += sp.Duration()
		case KExec:
			r.Exec += sp.Duration()
		case KOp:
			r.OpTime += sp.Duration()
		}
	}
	out := make([]ReqSummary, 0, len(order))
	for _, app := range order {
		out = append(out, *byApp[app])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].App < out[j].App
	})
	return out
}

// WriteTimeline renders the per-request timeline as an aligned text table.
func (s *Set) WriteTimeline(w io.Writer) error {
	sums := s.Summarize()
	if _, err := fmt.Fprintf(w, "%-5s %-6s %3s %12s %12s %6s %12s %12s %12s\n",
		"app", "class", "gid", "start", "latency", "calls", "wait", "exec", "gputime"); err != nil {
		return err
	}
	for _, r := range sums {
		lat := "open"
		if r.End >= r.Start {
			lat = (r.End - r.Start).String()
		}
		if _, err := fmt.Fprintf(w, "%-5d %-6s %3d %12v %12s %6d %12v %12v %12v\n",
			r.App, r.Name, r.GID, r.Start, lat, r.Calls, r.Wait, r.Exec, r.OpTime); err != nil {
			return err
		}
	}
	return nil
}

// WriteDecisions renders the decision-audit log as text, one decision per
// line with its row snapshot.
func (s *Set) WriteDecisions(w io.Writer) error {
	for _, d := range s.Decisions {
		if _, err := fmt.Fprintf(w, "%12v app %-4d %-6s node %d %-8s -> gid %d  [sft: %d samples, exec %v]\n",
			d.At, d.App, d.Class, d.Node, d.Policy, d.Picked, d.SFTSamples, d.SFTExec); err != nil {
			return err
		}
		for _, row := range d.Rows {
			if _, err := fmt.Fprintf(w, "%16s gid %d node %d %-7s load %d weight %.3g\n",
				"", row.GID, row.Node, row.Health, row.Load, row.Weight); err != nil {
				return err
			}
		}
	}
	return nil
}
