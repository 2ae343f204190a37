package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// RequestEvent is the per-request record of one served (or failed) end-user
// request: identity, placement, and the full latency breakdown. The request
// log is the raw material for latency analysis beyond the figures' averages
// (tail percentiles, per-device load reconstruction, trace replay).
type RequestEvent struct {
	AppID  int            `json:"app"`
	Kind   workload.Kind  `json:"-"`
	KindID string         `json:"kind"`
	Style  workload.Style `json:"-"`
	StyleN string         `json:"style"`
	Tenant int64          `json:"tenant"`
	Node   int            `json:"node"`

	// GID is the gPool device the request was bound to (-1 if it failed
	// before binding).
	GID int `json:"gid"`

	SubmittedUS int64 `json:"submitted_us"`
	StartedUS   int64 `json:"started_us"`
	FinishedUS  int64 `json:"finished_us"`

	// QueueUS is arrival-to-first-instruction; ServiceUS is the rest.
	QueueUS   int64 `json:"queue_us"`
	ServiceUS int64 `json:"service_us"`

	Err string `json:"err,omitempty"`
}

// CompletionTime returns the request's arrival-to-completion latency.
func (e RequestEvent) CompletionTime() sim.Time {
	return sim.Time(e.FinishedUS - e.SubmittedUS)
}

// recordRequest appends a request event to the owning environment's log.
func (e *slab) recordRequest(app *workload.App, s workload.StreamSpec, gid int, errStr string) {
	ev := RequestEvent{
		AppID:  app.ID,
		Kind:   s.Kind,
		KindID: s.Kind.String(),
		Style:  s.Style,
		StyleN: s.Style.String(),
		Tenant: s.Tenant,
		Node:   s.Node,
		GID:    gid,
		Err:    errStr,

		SubmittedUS: int64(app.Submitted),
		StartedUS:   int64(app.Started),
		FinishedUS:  int64(app.Finished),
	}
	if app.Started >= app.Submitted {
		ev.QueueUS = int64(app.Started - app.Submitted)
	}
	if app.Finished >= app.Started {
		ev.ServiceUS = int64(app.Finished - app.Started)
	}
	e.results.Requests = append(e.results.Requests, ev)
}

// SortedRequests returns the request log ordered by submission time (then
// app id), regardless of completion order.
func (r *RunResult) SortedRequests() []RequestEvent {
	out := append([]RequestEvent(nil), r.Requests...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SubmittedUS != out[j].SubmittedUS {
			return out[i].SubmittedUS < out[j].SubmittedUS
		}
		return out[i].AppID < out[j].AppID
	})
	return out
}

// WriteRequestLog emits the request log as JSON Lines, one event per line,
// in submission order.
func (r *RunResult) WriteRequestLog(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.SortedRequests() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("core: request log: %w", err)
		}
	}
	return nil
}
